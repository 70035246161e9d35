package lib

// Used is called by the root package.
//
//enblogue:reference a waiver on a used declaration is stale
func Used() int { return answer } // want `stale enblogue:reference on Used: it is used by non-test code`

// answer is used by Used.
const answer = 42

func Unused() {} // want `Unused is used by no non-test code`

func TestOnly() bool { return true } // want `TestOnly is used by no non-test code`

// helper lost its last product caller: only lib_test.go calls it.
func helper() int { return 1 } // want `helper is used by no non-test code`

// Model is waived without saying why.
//
//enblogue:reference
func Model() {} // want `enblogue:reference on Model needs a reason`

// Recurse calls itself, which is no use.
func Recurse(n int) int { // want `Recurse is used by no non-test code`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// T is used only by its own methods' receivers.
type T struct{} // want `T is used by no non-test code`

func (T) M() {} // want `T.M is used by no non-test code`
