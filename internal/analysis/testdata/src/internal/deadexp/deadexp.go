// Package deadexp seeds deadexport: one marker per finding, and one name
// per exemption that must stay silent.
package deadexp

import "fmt"

// Used has a product caller (cmd/tool).
func Used() int { return InternalOnly() + helper() }

// helper is unexported and Used calls it.
func helper() int { return 1 }

// InternalOnly has no caller outside the package.
func InternalOnly() int { return 1 } // want deadexport

// OwnTestsOnly is reached only by deadexp_test.go.
func OwnTestsOnly() int { return 2 } // want deadexport

// OtherTestsOnly is reached only by cmd/tool's test.
func OtherTestsOnly() int { return 3 } // want deadexport

// Nowhere has no reference at all.
func Nowhere() int { return 4 } // want deadexport

// BenchOnly is reached only from the nested bench module, a caller.
func BenchOnly() int { return 5 }

// Allowed is reached only by cmd/tool's test and says why it stays.
//
//lint:allow deadexport cmd/tool's test drives it
func Allowed() int { return 6 }

// testHelper is unexported and only deadexp_test.go calls it.
func testHelper() int { return 7 } // want deadexport

// Handle is never named outside the package, but cmd/tool calls Open,
// whose signature reaches it.
type Handle struct{ pos int }

// Open returns a fresh handle.
func Open() *Handle { return &Handle{} }

// Close is called through Open's result.
func (h *Handle) Close() error { return nil }

// String satisfies fmt.Stringer, so fmt calls it.
func (h *Handle) String() string { return fmt.Sprintf("handle@%d", h.pos) }

// Seek is called from the bench module, by selector name.
func (h *Handle) Seek() { h.pos = 0 }

// Rewind is called by nothing.
func (h *Handle) Rewind() { h.pos = 0 } // want deadexport

// Settings is built by cmd/tool, which sets Rate only.
type Settings struct {
	Rate  int
	Burst int // want deadexport
	// Name is a wire format: its tag exempts it.
	Name string `json:"name"`
}
