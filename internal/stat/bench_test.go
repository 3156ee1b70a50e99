package stat

import "testing"

// BenchmarkCounterIncParallel measures the contended case: every
// goroutine bumps the same atomic word.
func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
