// Package metricdoc parses the metrics contract out of
// docs/OBSERVABILITY.md. It is the single source of truth for the
// documented metric names: the metricnames static analyzer checks the
// code against it in both directions, and internal/core's telemetry_test.go
// contract test checks the runtime snapshot against it — so the doc↔code
// consistency logic exists in exactly one place.
package metricdoc

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// Kind is a metric's documented type.
type Kind string

// The three metric kinds the telemetry registry offers.
const (
	Counter   Kind = "counter"
	Gauge     Kind = "gauge"
	Histogram Kind = "histogram"
)

// Metric is one documented metric family.
type Metric struct {
	// Name is the documented dot-path. A `<placeholder>` segment (e.g.
	// broker.backlog.<topic>) marks a dynamic family registered with a
	// literal prefix plus a runtime suffix.
	Name string
	Kind Kind
	// Line is the 1-based line in the contract document.
	Line int
}

// Wildcard reports whether the name contains a dynamic placeholder.
//
//lint:allow deadexport internal/core's telemetry_test.go runtime contract check reads it
func (m Metric) Wildcard() bool { return strings.Contains(m.Name, "<") }

// Prefix returns the literal part of a wildcard name up to the
// placeholder ("broker.backlog." for broker.backlog.<topic>); for exact
// names it returns the full name.
//
//lint:allow deadexport internal/core's telemetry_test.go runtime contract check reads it
func (m Metric) Prefix() string {
	if i := strings.IndexByte(m.Name, '<'); i >= 0 {
		return m.Name[:i]
	}
	return m.Name
}

// matches reports whether a concrete runtime metric name belongs to this
// family: exact equality, or for wildcards a non-empty suffix after the
// literal prefix.
func (m Metric) matches(name string) bool {
	if !m.Wildcard() {
		return m.Name == name
	}
	p := m.Prefix()
	return strings.HasPrefix(name, p) && len(name) > len(p)
}

// Contract is the parsed metrics contract.
type Contract struct {
	// Path is where the contract was read from (for error messages).
	Path    string
	Metrics []Metric
}

// row matches a contract table row: | `name` | kind | ... — the name in
// backticks, the kind in the second column.
var row = regexp.MustCompile("^\\|\\s*`([a-z0-9_.<>-]+)`\\s*\\|\\s*(counter|gauge|histogram)\\s*\\|")

// parse reads a contract document. Every markdown table row whose first
// cell is a backticked metric name and whose second cell is a metric
// kind is part of the contract; everything else is prose.
func parse(r io.Reader, path string) (*Contract, error) {
	c := &Contract{Path: path}
	seen := make(map[string]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		m := row.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("%s:%d: metric %q already documented at line %d", path, line, name, prev)
		}
		seen[name] = line
		c.Metrics = append(c.Metrics, Metric{Name: name, Kind: Kind(m[2]), Line: line})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Metrics) == 0 {
		return nil, fmt.Errorf("%s: no metric contract rows found", path)
	}
	return c, nil
}

// ParseFile reads the contract from a file.
func ParseFile(path string) (*Contract, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, path)
}

// Match returns the documented family a concrete runtime name belongs
// to, or nil if the name is undocumented.
func (c *Contract) Match(name string) *Metric {
	for i := range c.Metrics {
		if c.Metrics[i].matches(name) {
			return &c.Metrics[i]
		}
	}
	return nil
}

// MatchPrefix returns the wildcard family registered with exactly the
// given literal prefix ("broker.backlog." → broker.backlog.<topic>), or
// nil.
func (c *Contract) MatchPrefix(prefix string) *Metric {
	for i := range c.Metrics {
		if c.Metrics[i].Wildcard() && c.Metrics[i].Prefix() == prefix {
			return &c.Metrics[i]
		}
	}
	return nil
}
