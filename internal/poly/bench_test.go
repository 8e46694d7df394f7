package poly

import (
	"math/rand"
	"testing"

	"qed2/internal/ff"
)

// BenchmarkPolySubst measures the substitution path the solver's Gaussian
// elimination leans on: substituting a linear combination into a dense Quad,
// and fixing a variable to a value.
func BenchmarkPolySubst(b *testing.B) {
	f := ff.BN254()
	rng := rand.New(rand.NewSource(7))
	const nVars = 24
	dense := func() *LinComb {
		lc := Const(f, f.RandFrom(rng))
		for v := 0; v < nVars; v++ {
			lc = lc.AddTerm(v, f.RandFrom(rng))
		}
		return lc
	}
	a, c := dense(), dense()
	q := MulLin(a, c)
	repl := dense().SubstituteValue(3, f.Zero())
	val := f.RandFrom(rng)

	b.Run("lincomb-substitute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkLC = a.Substitute(3, repl)
		}
	})
	b.Run("lincomb-substitute-value", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkLC = a.SubstituteValue(3, val)
		}
	})
	b.Run("quad-substitute-value", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkQuad = q.SubstituteValue(3, val)
		}
	})
	b.Run("quad-eval", func(b *testing.B) {
		b.ReportAllocs()
		m := map[int]ff.Element{}
		for v := 0; v < nVars; v++ {
			m[v] = f.RandFrom(rng)
		}
		for i := 0; i < b.N; i++ {
			sinkElt = q.EvalMap(m)
		}
	})
	b.Run("mullin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkQuad = MulLin(a, c)
		}
	})
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkString = q.Key()
		}
	})
}

var (
	sinkLC     *LinComb
	sinkQuad   *Quad
	sinkElt    ff.Element
	sinkString string
)
