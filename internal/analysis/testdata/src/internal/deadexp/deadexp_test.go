package deadexp

import "testing"

func TestOwn(t *testing.T) {
	if OwnTestsOnly()+testHelper() != 9 {
		t.Fatal("sum")
	}
}
