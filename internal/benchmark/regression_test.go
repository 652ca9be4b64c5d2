package benchmark

import "testing"

func BenchmarkEvaluateAllSequential(b *testing.B) {
	systems := allSystems()
	r := NewSequentialRunner()
	if _, err := r.EvaluateAll(systems...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EvaluateAll(systems...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateAllParallel(b *testing.B) {
	systems := allSystems()
	r := NewRunner()
	if _, err := r.EvaluateAll(systems...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.EvaluateAll(systems...); err != nil {
			b.Fatal(err)
		}
	}
}
