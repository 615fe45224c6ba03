// Package clustertest holds the wire-level cluster conformance suite:
// the replication and failover contracts of internal/broker re-proven
// over real TCP links (Serve + RemoteClient peers) with transport
// chaos from faults.NewProxy layered on top. The in-process tests in
// internal/broker pin the protocol logic; this package pins that the
// same guarantees survive serialization, connection pools, and torn
// frames. leakcheck proves every node, server, proxy, and client joins
// its goroutines on the way out.
package clustertest

import (
	"testing"

	"crayfish/internal/testutil/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
