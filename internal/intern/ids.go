package intern

// Dedup turns a document's tag strings into the document's tag set in the
// process-wide table's IDs: the empty tag is dropped and a repeated tag is
// kept once, at its first position. It is the engine's one tag-set rule —
// tag counts and pair candidates both read its output — and it is the one
// place a tag string is hashed on the ingest path.
//
// Duplicates are found with a per-ID epoch stamp rather than a per-document
// set, so a document of any size is deduplicated in one pass without
// allocating once the stamps cover the vocabulary. The zero value is ready
// to use. Not safe for concurrent use.
type Dedup struct {
	// stamp[id] == epoch marks id as already appended for the current
	// document; epoch advances once per Append.
	stamp []uint32
	epoch uint32
}

// Append interns every non-empty tag of tags, in order, and appends each
// distinct ID to dst once, in first-seen order. It returns the extended
// slice. IDs are assigned in that same order, so two streams presented in
// the same order intern identically.
//
//enblogue:hotpath
func (d *Dedup) Append(dst []uint32, tags []string) []uint32 {
	d.epoch++
	if d.epoch == 0 {
		// Wrapped after 2^32 documents: stale stamps could alias the new
		// epoch, so start over from a clean slate.
		clear(d.stamp)
		d.epoch = 1
	}
	for _, tag := range tags {
		if tag == "" {
			continue
		}
		id := Tags.Intern(tag)
		if int(id) >= len(d.stamp) {
			d.grow(id)
		}
		if d.stamp[id] == d.epoch {
			continue
		}
		d.stamp[id] = d.epoch
		dst = append(dst, id)
	}
	return dst
}

// grow extends the stamps to cover id. Growth goes through append, so the
// capacity doubles and a vocabulary growing one ID at a time reallocates
// O(log n) times.
func (d *Dedup) grow(id uint32) {
	d.stamp = append(d.stamp, make([]uint32, int(id)+1-len(d.stamp))...)
}

// Set is a membership test over interned IDs: a dense flag per ID up to the
// largest member, plus the member list, so Reset costs O(members), not
// O(vocabulary), and Has is one bounds check and one load. The zero value
// is the empty set. Not safe for concurrent use.
type Set struct {
	has     []bool
	members []uint32
}

// Has reports whether id is in the set.
func (s *Set) Has(id uint32) bool { return int(id) < len(s.has) && s.has[id] }

// Add puts id in the set.
func (s *Set) Add(id uint32) {
	if int(id) >= len(s.has) {
		s.has = append(s.has, make([]bool, int(id)+1-len(s.has))...)
	}
	if !s.has[id] {
		s.has[id] = true
		s.members = append(s.members, id)
	}
}

// Reset empties the set, keeping its storage.
func (s *Set) Reset() {
	for _, id := range s.members {
		s.has[id] = false
	}
	s.members = s.members[:0]
}
