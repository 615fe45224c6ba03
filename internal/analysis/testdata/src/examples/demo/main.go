// Command demo stands for an example program: a caller of the root
// package, like cmd/.
package main

import "fixture.test"

func main() {
	h := fixture.Open()
	_ = h.Close()
}
