package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// The Crayfish dataset file format (§3.1 option 2: "read real datasets"):
// a small binary container holding fixed-shape float32 data points.
//
//	magic "CRFDATA1" | u32 pointLen | u32 count | count×pointLen float32 LE

const datasetMagic = "CRFDATA1"

// dataset is a loaded real dataset served to the input producer.
type dataset struct {
	PointLen int
	Points   [][]float32
}

// readDataset loads a dataset file in the format above.
func readDataset(path string) (*dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	magic := make([]byte, len(datasetMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: dataset header: %w", err)
	}
	if string(magic) != datasetMagic {
		return nil, fmt.Errorf("core: %s is not a Crayfish dataset", path)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("core: dataset header: %w", err)
	}
	pointLen := int(binary.LittleEndian.Uint32(hdr))
	count := int(binary.LittleEndian.Uint32(hdr[4:]))
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	// The header sizes every allocation below, so it has to fit the file.
	// Divide rather than multiply: two u32 counts overflow an int64 product.
	body := info.Size() - int64(len(datasetMagic)+len(hdr))
	if pointLen <= 0 || int64(count) > body/4/int64(pointLen) {
		return nil, fmt.Errorf("core: dataset header claims %d points of %d floats, the file holds %d bytes of them", count, pointLen, body)
	}
	ds := &dataset{PointLen: pointLen, Points: make([][]float32, count)}
	var buf []byte
	for i := 0; i < count; i++ {
		if buf == nil {
			buf = make([]byte, 4*pointLen)
		}
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("core: dataset point %d: %w", i, err)
		}
		p := make([]float32, pointLen)
		for j := range p {
			p[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		ds.Points[i] = p
	}
	return ds, nil
}

// loadDataset reads the workload's dataset file and checks it against
// the workload's shape; a workload without one gets nil, the synthetic
// generator.
func loadDataset(w *Workload) (*dataset, error) {
	if w.DatasetPath == "" {
		return nil, nil
	}
	ds, err := readDataset(w.DatasetPath)
	if err != nil {
		return nil, err
	}
	if err := ds.Validate(w); err != nil {
		return nil, err
	}
	return ds, nil
}

// batchAt assembles the id-th batch of n points, cycling through the
// dataset (streams outlive finite datasets).
func (d *dataset) batchAt(id int64, n int) []float32 {
	out := make([]float32, 0, n*d.PointLen)
	for i := 0; i < n; i++ {
		p := d.Points[(int(id)*n+i)%len(d.Points)]
		out = append(out, p...)
	}
	return out
}

// Validate checks the dataset against a workload's shape.
func (d *dataset) Validate(w *Workload) error {
	if len(d.Points) == 0 {
		return fmt.Errorf("core: dataset is empty")
	}
	if d.PointLen != w.pointLen() {
		return fmt.Errorf("core: dataset points have %d values, workload shape %v wants %d", d.PointLen, w.InputShape, w.pointLen())
	}
	return nil
}
