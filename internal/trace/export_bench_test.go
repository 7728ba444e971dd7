package trace

import (
	"io"
	"testing"
)

func BenchmarkWriteTraceEventsLarge(b *testing.B) {
	spans := multiRankFixture().Spans()
	for len(spans) < 5000 {
		spans = append(spans, spans...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTraceEvents(io.Discard, Group{Spans: spans}); err != nil {
			b.Fatal(err)
		}
	}
}
