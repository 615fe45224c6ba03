package flink

import "crayfish/internal/broker"

// mkRecords wraps values into broker records for direct partition appends.
func mkRecords(values ...[]byte) []broker.Record {
	recs := make([]broker.Record, len(values))
	for i, v := range values {
		recs[i] = broker.Record{Value: v}
	}
	return recs
}
