package main

import (
	"testing"

	"fixture.test/internal/deadexp"
	"fixture.test/internal/deadexp/deadexptest"
)

func TestTool(t *testing.T) {
	if deadexp.OtherTestsOnly()+deadexp.Allowed() != 9 || !deadexptest.Check() {
		t.Fatal("sum")
	}
}
