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

// WriteDataset stores data points (flattened row-major, pointLen values
// each) to path.
func WriteDataset(path string, points []float32, pointLen int) error {
	if pointLen <= 0 || len(points)%pointLen != 0 {
		return fmt.Errorf("core: %d values do not form %d-length points", len(points), pointLen)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(datasetMagic); err != nil {
		return err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr, uint32(pointLen))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(points)/pointLen))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, v := range points {
		binary.LittleEndian.PutUint32(buf, math.Float32bits(v))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// Dataset is a loaded real dataset served to the input producer.
type Dataset struct {
	PointLen int
	Points   [][]float32
}

// ReadDataset loads a dataset file written by WriteDataset.
func ReadDataset(path string) (*Dataset, error) {
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
	if pointLen <= 0 || count < 0 || pointLen > 1<<24 || count > 1<<24 {
		return nil, fmt.Errorf("core: implausible dataset dimensions %d×%d", count, pointLen)
	}
	ds := &Dataset{PointLen: pointLen, Points: make([][]float32, count)}
	buf := make([]byte, 4*pointLen)
	for i := 0; i < count; i++ {
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
func loadDataset(w *Workload) (*Dataset, error) {
	if w.DatasetPath == "" {
		return nil, nil
	}
	ds, err := ReadDataset(w.DatasetPath)
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
func (d *Dataset) batchAt(id int64, n int) []float32 {
	out := make([]float32, 0, n*d.PointLen)
	for i := 0; i < n; i++ {
		p := d.Points[(int(id)*n+i)%len(d.Points)]
		out = append(out, p...)
	}
	return out
}

// Validate checks the dataset against a workload's shape.
func (d *Dataset) Validate(w *Workload) error {
	if len(d.Points) == 0 {
		return fmt.Errorf("core: dataset is empty")
	}
	if d.PointLen != w.PointLen() {
		return fmt.Errorf("core: dataset points have %d values, workload shape %v wants %d", d.PointLen, w.InputShape, w.PointLen())
	}
	return nil
}
