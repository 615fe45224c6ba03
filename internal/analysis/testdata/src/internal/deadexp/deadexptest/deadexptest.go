// Package deadexptest is a test-support package: other packages' tests
// are the callers it exists for.
package deadexptest

// Check is reached only by cmd/tool's test.
func Check() bool { return true }
