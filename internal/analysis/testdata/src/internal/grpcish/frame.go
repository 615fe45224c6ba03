package grpcish

// frame.go is allocation-restricted in its entirety: the framing grows a
// body as its bytes arrive, into connection scratch or one buffer of its
// own.

// ReadTrusting sizes a body by the length its header claims.
func ReadTrusting(size uint32) []byte {
	return make([]byte, size) // want hotpathalloc
}
