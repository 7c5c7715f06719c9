// Package errs exercises the errdrop analyzer: error results on this
// (policy-listed) path must be consulted — no blank assignments, no
// bare-statement discards.
package errs

import (
	"fmt"
	"hash/fnv"
	"io"
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

// ReadAll is the shape of the one drop the rule has caught in the live
// tree (cmd/loadgen): a plain = into an existing variable, the error
// component into _, so a truncated body passed for a whole one.
func ReadAll(r io.Reader) []byte {
	var body []byte
	body, _ = io.ReadAll(r) // want errdrop "assigns an error to _"
	return body
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
