package ff

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential tests: every Element operation must agree with the retained
// *big.Int reference implementation (the *Big boundary API plus big.Int
// modular arithmetic), over BN254 and a spread of small and odd-limb-count
// primes, including the edge values 0, 1, p-1 and Montgomery round-trips.

// diffFields returns the fields the differential suite runs over: BN254
// (4 limbs, the production field), primes occupying 1, 2 and 3 limbs (odd
// limb counts exercise the zero high limbs of the representation), and tiny
// primes on the small-field fast path.
func diffFields(t testing.TB) []*Field {
	t.Helper()
	return []*Field{
		BN254(),
		// 3-limb prime: 2^190 - 11.
		MustField(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 190), big.NewInt(11))),
		// 2-limb prime: 2^127 - 1 (Mersenne).
		MustField(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))),
		// 1-limb primes: large 64-bit (still small-field path) and truly tiny.
		MustFieldFromString("18446744073709551557"), // largest prime < 2^64
		MustField(big.NewInt(65537)),
		MustField(big.NewInt(97)),
		MustField(big.NewInt(3)),
	}
}

// edgeValues returns the boundary cases every property also checks
// explicitly, since quick.Check rarely generates them.
func edgeValues(f *Field) []*big.Int {
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(f.Modulus(), big.NewInt(1)),
		new(big.Int).Sub(f.Modulus(), big.NewInt(2)),
		new(big.Int).Rsh(f.Modulus(), 1),
	}
}

// randBig draws a uniform value in [0, p) from a deterministic source.
func randBig(f *Field, rng *rand.Rand) *big.Int {
	return new(big.Int).Rand(rng, f.Modulus())
}

// checkPair runs prop on (a, b) picked from the quick.Check stream plus all
// edge-value pairs.
func forAllPairs(t *testing.T, f *Field, prop func(a, b *big.Int) bool) {
	t.Helper()
	edges := edgeValues(f)
	for _, a := range edges {
		for _, b := range edges {
			if !prop(a, b) {
				t.Fatalf("%s: property failed on edge pair a=%v b=%v", f.Name(), a, b)
			}
		}
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(0xd1ff)),
	}
	wrapped := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		return prop(randBig(f, r), randBig(f, r))
	}
	if err := quick.Check(wrapped, cfg); err != nil {
		t.Fatalf("%s: %v", f.Name(), err)
	}
}

func TestElementDifferentialBinaryOps(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			forAllPairs(t, f, func(a, b *big.Int) bool {
				ea, eb := f.FromBig(a), f.FromBig(b)
				ra, rb := f.Reduce(a), f.Reduce(b)
				if got, want := f.ToBig(f.Add(ea, eb)), f.AddBig(ra, rb); got.Cmp(want) != 0 {
					t.Errorf("Add(%v,%v) = %v, want %v", ra, rb, got, want)
					return false
				}
				if got, want := f.ToBig(f.Sub(ea, eb)), f.SubBig(ra, rb); got.Cmp(want) != 0 {
					t.Errorf("Sub(%v,%v) = %v, want %v", ra, rb, got, want)
					return false
				}
				if got, want := f.ToBig(f.Mul(ea, eb)), f.MulBig(ra, rb); got.Cmp(want) != 0 {
					t.Errorf("Mul(%v,%v) = %v, want %v", ra, rb, got, want)
					return false
				}
				wantDiv, errBig := f.DivBig(ra, rb)
				gotDiv, errElt := f.Div(ea, eb)
				if (errBig == nil) != (errElt == nil) {
					t.Errorf("Div(%v,%v) error mismatch: big=%v elt=%v", ra, rb, errBig, errElt)
					return false
				}
				if errBig == nil && f.ToBig(gotDiv).Cmp(wantDiv) != 0 {
					t.Errorf("Div(%v,%v) = %v, want %v", ra, rb, f.ToBig(gotDiv), wantDiv)
					return false
				}
				return true
			})
		})
	}
}

func TestElementDifferentialUnaryOps(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			forAllPairs(t, f, func(a, e *big.Int) bool {
				ea := f.FromBig(a)
				ra := f.Reduce(a)
				if got, want := f.ToBig(f.Neg(ea)), f.NegBig(ra); got.Cmp(want) != 0 {
					t.Errorf("Neg(%v) = %v, want %v", ra, got, want)
					return false
				}
				if got, want := f.ToBig(f.Square(ea)), f.MulBig(ra, ra); got.Cmp(want) != 0 {
					t.Errorf("Square(%v) = %v, want %v", ra, got, want)
					return false
				}
				if got, want := f.ToBig(f.Double(ea)), f.AddBig(ra, ra); got.Cmp(want) != 0 {
					t.Errorf("Double(%v) = %v, want %v", ra, got, want)
					return false
				}
				wantInv, errBig := f.InvBig(ra)
				gotInv, errElt := f.Inv(ea)
				if (errBig == nil) != (errElt == nil) {
					t.Errorf("Inv(%v) error mismatch: big=%v elt=%v", ra, errBig, errElt)
					return false
				}
				if errBig == nil && f.ToBig(gotInv).Cmp(wantInv) != 0 {
					t.Errorf("Inv(%v) = %v, want %v", ra, f.ToBig(gotInv), wantInv)
					return false
				}
				exp := f.Reduce(e)
				if got, want := f.ToBig(f.Exp(ea, exp)), f.ExpBig(ra, exp); got.Cmp(want) != 0 {
					t.Errorf("Exp(%v,%v) = %v, want %v", ra, exp, got, want)
					return false
				}
				if got, want := f.Signed(ea), f.SignedBig(ra); got.Cmp(want) != 0 {
					t.Errorf("Signed(%v) = %v, want %v", ra, got, want)
					return false
				}
				return true
			})
		})
	}
}

// TestElementMontgomeryRoundTrip checks that FromBig → ToBig is the identity
// on [0, p) (i.e. the Montgomery conversion round-trips), that canonical
// representations make == coincide with field equality, and that the zero
// value is the additive identity.
func TestElementMontgomeryRoundTrip(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			vals := append(edgeValues(f), randBig(f, rng), randBig(f, rng), randBig(f, rng))
			for _, v := range vals {
				rv := f.Reduce(v)
				e := f.FromBig(rv)
				if !f.IsValid(e) {
					t.Fatalf("FromBig(%v) not canonical: %v", rv, e)
				}
				if got := f.ToBig(e); got.Cmp(rv) != 0 {
					t.Fatalf("round-trip: ToBig(FromBig(%v)) = %v", rv, got)
				}
				if e2 := f.FromBig(new(big.Int).Add(rv, f.Modulus())); e2 != e {
					t.Fatalf("FromBig(%v + p) != FromBig(%v): representations not canonical", rv, rv)
				}
			}
			var zero Element
			if f.FromBig(big.NewInt(0)) != zero {
				t.Fatalf("FromBig(0) is not the zero Element")
			}
			if !f.IsOne(f.FromBig(big.NewInt(1))) {
				t.Fatalf("FromBig(1) is not One")
			}
			if f.Add(f.One(), zero) != f.One() {
				t.Fatalf("zero value is not the additive identity")
			}
		})
	}
}

func TestElementDifferentialAggregates(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			var elts []Element
			var bigs []*big.Int
			for i := 0; i < 9; i++ {
				v := randBig(f, rng)
				if i == 0 {
					v = big.NewInt(1) // BatchInv needs nonzero; include 1 and p-1
				}
				if i == 1 {
					v = new(big.Int).Sub(f.Modulus(), big.NewInt(1))
				}
				if v.Sign() == 0 {
					v = big.NewInt(1)
				}
				elts = append(elts, f.FromBig(v))
				bigs = append(bigs, f.Reduce(v))
			}
			sum := new(big.Int)
			prod := big.NewInt(1)
			for _, v := range bigs {
				sum = f.AddBig(sum, v)
				prod = f.MulBig(prod, v)
			}
			if got := f.ToBig(f.Sum(elts...)); got.Cmp(sum) != 0 {
				t.Fatalf("Sum = %v, want %v", got, sum)
			}
			if got := f.ToBig(f.Prod(elts...)); got.Cmp(prod) != 0 {
				t.Fatalf("Prod = %v, want %v", got, prod)
			}
			invs, err := f.BatchInv(elts)
			if err != nil {
				t.Fatalf("BatchInv: %v", err)
			}
			for i, inv := range invs {
				want, err := f.InvBig(bigs[i])
				if err != nil {
					t.Fatalf("InvBig(%v): %v", bigs[i], err)
				}
				if got := f.ToBig(inv); got.Cmp(want) != 0 {
					t.Fatalf("BatchInv[%d] = %v, want %v", i, got, want)
				}
			}
		})
	}
}

func TestElementDifferentialSqrtLegendre(t *testing.T) {
	for _, f := range diffFields(t) {
		f := f
		t.Run(f.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			vals := append(edgeValues(f), randBig(f, rng), randBig(f, rng), randBig(f, rng), randBig(f, rng))
			for _, v := range vals {
				rv := f.Reduce(v)
				e := f.FromBig(rv)
				// Reference Legendre via big.Int Jacobi.
				want := big.Jacobi(rv, f.Modulus())
				if got := f.Legendre(e); got != want {
					t.Fatalf("Legendre(%v) = %d, want %d", rv, got, want)
				}
				root, ok := f.Sqrt(e)
				if ok != (want >= 0) {
					t.Fatalf("Sqrt(%v) ok=%v, want %v", rv, ok, want >= 0)
				}
				if ok {
					if got := f.ToBig(f.Square(root)); got.Cmp(rv) != 0 {
						t.Fatalf("Sqrt(%v)² = %v", rv, got)
					}
					// Cross-check the chosen root against big.Int ModSqrt up to sign:
					// the solver's search tree depends on which root comes back, and
					// both representations must keep choosing the same one.
					ref := new(big.Int).ModSqrt(rv, f.Modulus())
					if ref == nil {
						t.Fatalf("ModSqrt(%v) = nil but Sqrt succeeded", rv)
					}
					gotRoot := f.ToBig(root)
					if gotRoot.Cmp(ref) != 0 && gotRoot.Cmp(f.NegBig(ref)) != 0 {
						t.Fatalf("Sqrt(%v) = %v, not ±%v", rv, gotRoot, ref)
					}
				}
			}
		})
	}
}

// refSqrt is a reference Tonelli–Shanks square root that derives all its
// constants on every call: a Legendre test, the direct a^((p+1)/4) for
// p ≡ 3 (mod 4), and otherwise a search for the least non-residue. The
// solver branches on the root Sqrt returns, so Sqrt must choose exactly
// this one.
func refSqrt(f *Field, a Element) (Element, bool) {
	if a.IsZero() {
		return Element{}, true
	}
	if f.Legendre(a) != 1 {
		return Element{}, false
	}
	p := f.Modulus()
	one := big.NewInt(1)
	if p.Bit(0) == 1 && p.Bit(1) == 1 {
		e := new(big.Int).Add(p, one)
		return f.Exp(a, e.Rsh(e, 2)), true
	}
	q := new(big.Int).Sub(p, one)
	s := 0
	for q.Bit(0) == 0 {
		q.Rsh(q, 1)
		s++
	}
	zi := int64(2)
	for f.Legendre(f.NewElement(zi)) != -1 {
		zi++
	}
	m := s
	c := f.Exp(f.NewElement(zi), q)
	t := f.Exp(a, q)
	r := f.Exp(a, new(big.Int).Rsh(new(big.Int).Add(q, one), 1))
	for t != f.One() {
		i := 0
		for t2 := t; t2 != f.One(); i++ {
			t2 = f.Square(t2)
		}
		b := c
		for j := 0; j < m-i-1; j++ {
			b = f.Square(b)
		}
		m = i
		c = f.Square(b)
		t = f.Mul(t, c)
		r = f.Mul(r, b)
	}
	return r, true
}

// TestSqrtMatchesReference pins the exact root Sqrt returns, not only its
// value up to sign: every element of small fields of both shapes (p ≡ 1 and
// p ≡ 3 mod 4), the edge values of every differential field, and seeded
// random BN254 elements. Non-residues must return (0, false).
func TestSqrtMatchesReference(t *testing.T) {
	check := func(f *Field, a Element) {
		t.Helper()
		got, ok := f.Sqrt(a)
		want, wantOK := refSqrt(f, a)
		if ok != wantOK || got != want {
			t.Fatalf("%s: Sqrt(%s) = (%s, %v), want (%s, %v)",
				f.Name(), f.String(a), f.String(got), ok, f.String(want), wantOK)
		}
		if !ok && got != (Element{}) {
			t.Fatalf("%s: Sqrt(%s) of a non-residue returned %s", f.Name(), f.String(a), f.String(got))
		}
	}
	for _, p := range []int64{13, 97, 103, 65537} { // 103 ≡ 3 (mod 4)
		f := MustField(big.NewInt(p))
		for v := int64(0); v < p; v++ {
			check(f, f.NewElement(v))
		}
	}
	for _, f := range diffFields(t) {
		for _, v := range edgeValues(f) {
			check(f, f.FromBig(f.Reduce(v)))
		}
	}
	f := BN254()
	rng := rand.New(rand.NewSource(0x5127))
	residues := 0
	for i := 0; i < 1200; i++ {
		a := f.RandFrom(rng)
		if f.Legendre(a) == 1 {
			residues++
		}
		check(f, a)
	}
	if residues < 400 || residues > 800 {
		t.Fatalf("BN254: %d of 1200 random elements are residues; the sample is skewed", residues)
	}
}

// TestFieldCache pins the satellite fix: constructing the same field twice
// returns the identical cached instance and skips the repeated primality
// check (observable as identity, and as large-N construction being cheap).
func TestFieldCache(t *testing.T) {
	a := MustField(big.NewInt(101))
	b := MustField(big.NewInt(101))
	if a != b {
		t.Fatalf("NewField(101) not cached: got distinct instances")
	}
	c := MustFieldFromString("101")
	if a != c {
		t.Fatalf("MustFieldFromString(101) not cached")
	}
	if BN254() != MustField(BN254().Modulus()) {
		t.Fatalf("BN254 modulus not cached")
	}
	for i := 0; i < 5000; i++ {
		if f, err := SmallField(97); err != nil || f != MustField(big.NewInt(97)) {
			t.Fatalf("SmallField(97) iteration %d: %v %v", i, f, err)
		}
	}
}
