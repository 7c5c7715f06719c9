// Package errs exercises the errdrop analyzer: error results on this
// (policy-listed) path must be consulted — no blank assignments, no
// bare-statement discards, no overwrite or abandonment before use.
package errs

import (
	"fmt"
	"hash/fnv"
)

func fail() error        { return fmt.Errorf("boom") }
func pair() (int, error) { return 0, fmt.Errorf("boom") }
func sink(int)           {}

// Bare discards the error as an expression statement.
func Bare() {
	fail() // want errdrop "discards the error returned by"
}

// Blank hides the error in the blank identifier.
func Blank() {
	_ = fail() // want errdrop "assigns an error to _"
}

// TupleBlank hides the tuple's error component.
func TupleBlank() {
	v, _ := pair() // want errdrop "assigns an error to _"
	sink(v)
}

// Overwrite clobbers a fresh error before anything consulted it.
func Overwrite() error {
	err := fail()
	err = fail() // want errdrop "overwrites err before the previous error"
	return err
}

// OverwriteNamed is the named-result flavor.
func OverwriteNamed() (err error) {
	err = fail()
	err = nil // want errdrop "overwrites err before the previous error"
	return
}

// AbandonAtReturn drops the error on the flag path only; the other
// paths consult it, so the finding sits on the one bad return.
func AbandonAtReturn(flag bool) int {
	err := fail()
	if flag {
		return 1 // want errdrop "still unconsulted on this path"
	}
	if err != nil {
		return 2
	}
	return 3
}

// AbandonAtEnd never consults the error on any reachable path. The
// lexical use behind the goto keeps the compiler satisfied without
// putting a consult on a live path.
func AbandonAtEnd() {
	err := fail() // want errdrop "never consults it"
	goto done
	_ = err
done:
}

// CleanChecked is the canonical consulted error.
func CleanChecked() error {
	err := fail()
	if err != nil {
		return err
	}
	return nil
}

// CleanReturned forwards the error to the caller — returning IS
// consulting.
func CleanReturned() error {
	err := fail()
	return err
}

// CleanWrapped consults the error inside the return expression.
func CleanWrapped() error {
	err := fail()
	return fmt.Errorf("wrapped: %w", err)
}

// CleanNamedBareReturn forwards a named result through a bare return.
func CleanNamedBareReturn() (err error) {
	err = fail()
	return
}

// CleanExempt calls into a policy-exempt package whose errors are
// vacuous by contract.
func CleanExempt() {
	fmt.Println("ok")
}

// CleanExemptInterface discards the error of an interface method whose
// contract lives with the receiver's type, not with the package that
// declares the method: h.Write is io.Writer.Write, but the promise that
// it never fails is hash.Hash's, and hash is on the exempt list.
func CleanExemptInterface() uint64 {
	h := fnv.New64a()
	h.Write([]byte("x"))
	_, _ = h.Write([]byte("y"))
	return h.Sum64()
}

// CleanAddressTaken has consumers the intraprocedural flow cannot see.
func CleanAddressTaken(capture func(*error)) {
	var err error
	capture(&err)
	err = fail()
}

// CleanClosureCaptured likewise: the closure may consult it later.
func CleanClosureCaptured() func() error {
	err := fail()
	return func() error {
		err = fail()
		return err
	}
}

// Suppressed documents a deliberate drop with a reasoned directive.
func Suppressed() {
	//lint:ignore errdrop fixture: the drop is deliberate, proving suppression works
	fail()
}

// StaleDirective carries an ignore that suppresses nothing.
func StaleDirective() error {
	//lint:ignore errdrop this error is consulted, so the directive is stale // want lintdirective "suppresses nothing"
	err := fail()
	return err
}
