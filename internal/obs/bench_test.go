package obs

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkRecord measures the per-event recording cost against a ring large
// enough that every slot write is a compulsory cache miss — the regime a
// traced fat-tree run is in (a ~300k-event history streamed into a 64MB ring).
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(1 << 20)
	tr := r.NewTracer("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(sim.Time(i), KEnqueue, RNone, 3, 0, 0x0A000001, 0xE0000001, 2, 5, uint64(i), uint64(i), int64(i), 1024)
	}
}

// BenchmarkRecordHot is the same store pattern into a ring that fits in L2:
// the difference against BenchmarkRecord is pure memory-subsystem cost.
func BenchmarkRecordHot(b *testing.B) {
	r := NewRecorder(1024)
	tr := r.NewTracer("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Record(sim.Time(i), KEnqueue, RNone, 3, 0, 0x0A000001, 0xE0000001, 2, 5, uint64(i), uint64(i), int64(i), 1024)
	}
}
