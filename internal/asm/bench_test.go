package asm

import (
	"math/rand"
	"testing"
)

// benchProgram is a large seeded program with several relaxation
// rounds.
func benchProgram() *Program { return randomProgram(rand.New(rand.NewSource(3)), 4000) }

func BenchmarkAssemble(b *testing.B) {
	p := benchProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(p, 0x1000); err != nil {
			b.Fatal(err)
		}
	}
}
