package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

// BenchmarkFFOps measures the Element hot-path operations against the
// retained big.Int reference implementation. The refactor's acceptance bar
// is ≥5× on BN254 mul/add (element vs bigint sub-benchmarks).
func BenchmarkFFOps(b *testing.B) {
	for _, tc := range []struct {
		name string
		f    *Field
	}{
		{"BN254", BN254()},
		{"F1009", MustField(big.NewInt(1009))},
	} {
		f := tc.f
		rng := rand.New(rand.NewSource(42))
		ea, eb := f.RandFrom(rng), f.RandFrom(rng)
		for ea.IsZero() || eb.IsZero() {
			ea, eb = f.RandFrom(rng), f.RandFrom(rng)
		}
		ba, bb := f.ToBig(ea), f.ToBig(eb)

		b.Run(tc.name+"/mul/element", func(b *testing.B) {
			r := ea
			for i := 0; i < b.N; i++ {
				r = f.Mul(r, eb)
			}
			sinkElt = r
		})
		b.Run(tc.name+"/mul/bigint", func(b *testing.B) {
			r := new(big.Int).Set(ba)
			for i := 0; i < b.N; i++ {
				r = f.MulBig(r, bb)
			}
			sinkBig = r
		})
		b.Run(tc.name+"/add/element", func(b *testing.B) {
			r := ea
			for i := 0; i < b.N; i++ {
				r = f.Add(r, eb)
			}
			sinkElt = r
		})
		b.Run(tc.name+"/add/bigint", func(b *testing.B) {
			r := new(big.Int).Set(ba)
			for i := 0; i < b.N; i++ {
				r = f.AddBig(r, bb)
			}
			sinkBig = r
		})
		b.Run(tc.name+"/inv/element", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkElt = f.MustInv(ea)
			}
		})
		b.Run(tc.name+"/inv/bigint", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := f.InvBig(ba)
				if err != nil {
					b.Fatal(err)
				}
				sinkBig = r
			}
		})
		b.Run(tc.name+"/exp/element", func(b *testing.B) {
			e := big.NewInt(0xdeadbeef)
			for i := 0; i < b.N; i++ {
				sinkElt = f.Exp(ea, e)
			}
		})
		b.Run(tc.name+"/frombig", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkElt = f.FromBig(ba)
			}
		})
	}
}

// BenchmarkSqrt measures Sqrt on a quadratic residue and a non-residue, over
// BN254 (p ≡ 1 mod 2^28, the deep Tonelli–Shanks case) and F_1009.
func BenchmarkSqrt(b *testing.B) {
	for _, tc := range []struct {
		name string
		f    *Field
	}{
		{"BN254", BN254()},
		{"F1009", MustField(big.NewInt(1009))},
	} {
		f := tc.f
		rng := rand.New(rand.NewSource(42))
		var residue, nonResidue Element
		for residue.IsZero() || nonResidue.IsZero() {
			a := f.RandFrom(rng)
			switch f.Legendre(a) {
			case 1:
				residue = a
			case -1:
				nonResidue = a
			}
		}
		b.Run(tc.name+"/residue", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkElt, _ = f.Sqrt(residue)
			}
		})
		b.Run(tc.name+"/non-residue", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkElt, _ = f.Sqrt(nonResidue)
			}
		})
	}
}

var (
	sinkElt Element
	sinkBig *big.Int
)
