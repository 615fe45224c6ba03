package fixture

import "testing"

func TestTestsOnly(t *testing.T) {
	if TestsOnly() != 1 {
		t.Fatal("TestsOnly")
	}
}
