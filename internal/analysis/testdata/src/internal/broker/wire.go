package broker

// wire.go is allocation-restricted in its entirety: the frame codec's
// encoders append into connection scratch and its decoders slice the
// frame they are given.

// Record stands in for the broker's record type.
type Record struct{ Value []byte }

// DecodeCopy copies each value out of the frame instead of aliasing it,
// and sizes its result by a count it has not checked.
func DecodeCopy(frame []byte, n int) []Record {
	out := make([]Record, 0, n) // want hotpathalloc
	for i := 0; i < n; i++ {
		v := make([]byte, len(frame)) // want hotpathalloc
		copy(v, frame)
		out = append(out, Record{Value: v})
	}
	return out
}
