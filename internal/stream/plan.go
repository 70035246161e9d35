package stream

import (
	"context"
	"fmt"
)

// Plan is a declarative query plan: a named chain of operator stages ending
// in a sink. Stages are identified by a key; the Runner shares stages with
// equal keys between plans so that, as in the paper, "overlapping parts,
// like data sources, sketching operators, entity tagging, and statistics
// operators are shared for efficiency".
type Plan struct {
	// Name identifies the plan (e.g. "jaccard-2d" vs "cosine-1d").
	Name string
	// Stages are applied source → sink in order. A stage with a non-empty
	// Key is shared across plans; stages with empty keys are private.
	Stages []Stage
	// Sink receives the fully processed items of this plan.
	Sink Sink
}

// Stage is one operator slot in a plan.
type Stage struct {
	// Key identifies the stage for sharing. Two plans using the same Key
	// receive the same operator instance; New is called once.
	Key string
	// New constructs the operator. It must be safe to call once per
	// distinct key (shared) or once per plan (private).
	New func() Operator
}

// Shared returns a stage shared under the given key.
func Shared(key string, newOp func() Operator) Stage {
	return Stage{Key: key, New: newOp}
}

// Private returns a plan-private stage.
func Private(newOp func() Operator) Stage {
	return Stage{New: newOp}
}

// Runner wires one Source into any number of Plans, deduplicating shared
// stage prefixes, and pumps the stream to completion. A stage is shared
// between two plans only when the whole prefix up to and including that
// stage has equal keys — sharing a suffix below divergent prefixes would
// change semantics.
type Runner struct {
	source Source
	plans  []*Plan
}

// NewRunner returns a runner over the given source.
func NewRunner(source Source) *Runner {
	return &Runner{source: source}
}

// Add registers a plan. It must be called before Run.
func (r *Runner) Add(p *Plan) *Runner {
	r.plans = append(r.plans, p)
	return r
}

// Run builds the shared DAG and pumps the source through it. It returns the
// source error, if any. Flush is propagated to all sinks when the source is
// exhausted.
func (r *Runner) Run(ctx context.Context) error {
	root, err := r.build()
	if err != nil {
		return err
	}
	err = r.source.Run(ctx, root.Emit)
	root.Flush()
	return err
}

// build constructs the operator DAG and returns its root fan-out.
func (r *Runner) build() (*FanOut, error) {
	if len(r.plans) == 0 {
		return nil, fmt.Errorf("stream: runner has no plans")
	}
	root := &FanOut{}
	// sharedOps maps prefix path → operator instance.
	sharedOps := make(map[string]Operator)
	for _, p := range r.plans {
		if p.Sink == nil {
			return nil, fmt.Errorf("stream: plan %q has no sink", p.Name)
		}
		upstream := subscriber(root)
		prefix := ""
		sharable := true
		for i, st := range p.Stages {
			if st.New == nil {
				return nil, fmt.Errorf("stream: plan %q stage %d has nil constructor", p.Name, i)
			}
			var op Operator
			if st.Key != "" && sharable {
				prefix = prefix + "/" + st.Key
				if existing, ok := sharedOps[prefix]; ok {
					op = existing
					upstream = subscriber(op) // attach next stage below the shared instance
					continue
				}
				op = st.New()
				sharedOps[prefix] = op
			} else {
				sharable = false
				op = st.New()
			}
			upstream.Subscribe(op)
			upstream = subscriber(op)
		}
		upstream.Subscribe(p.Sink)
	}
	return root, nil
}

// subscriberIface is the minimal surface build needs from fan-out points.
type subscriberIface interface {
	Subscribe(Sink)
}

func subscriber(v subscriberIface) subscriberIface { return v }
