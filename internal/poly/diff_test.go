package poly

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"qed2/internal/ff"
)

// This file checks the slice-backed LinComb and Quad against a map-backed
// reference model: random operation sequences run on both, and after every
// operation the result must be canonical (strictly sorted terms, no zero
// coefficient), must equal the model, and no operand may have changed.

// refLC is the reference model of a LinComb.
type refLC struct {
	konst ff.Element
	terms map[int]ff.Element
}

// refQuad is the reference model of a Quad.
type refQuad struct {
	lin  refLC
	quad map[VarPair]ff.Element
}

func newRefLC() refLC { return refLC{terms: map[int]ff.Element{}} }

func newRefQuad() refQuad { return refQuad{lin: newRefLC(), quad: map[VarPair]ff.Element{}} }

func (r refLC) copy() refLC {
	out := refLC{konst: r.konst, terms: map[int]ff.Element{}}
	for v, c := range r.terms {
		out.terms[v] = c
	}
	return out
}

func (r refQuad) copy() refQuad {
	out := refQuad{lin: r.lin.copy(), quad: map[VarPair]ff.Element{}}
	for p, c := range r.quad {
		out.quad[p] = c
	}
	return out
}

func (r refLC) addTo(f *ff.Field, x int, c ff.Element) {
	if s := f.Add(r.terms[x], c); s.IsZero() {
		delete(r.terms, x)
	} else {
		r.terms[x] = s
	}
}

func (r refQuad) addPair(f *ff.Field, p VarPair, c ff.Element) {
	if s := f.Add(r.quad[p], c); s.IsZero() {
		delete(r.quad, p)
	} else {
		r.quad[p] = s
	}
}

// refAxpy returns a + k·b.
func refAxpy(f *ff.Field, a refLC, k ff.Element, b refLC) refLC {
	out := a.copy()
	out.konst = f.Add(out.konst, f.Mul(k, b.konst))
	for v, c := range b.terms {
		out.addTo(f, v, f.Mul(k, c))
	}
	return out
}

func refScale(f *ff.Field, a refLC, k ff.Element) refLC {
	return refAxpy(f, newRefLC(), k, a)
}

func refSubstituteValue(f *ff.Field, a refLC, x int, v ff.Element) refLC {
	out := a.copy()
	if c, ok := out.terms[x]; ok {
		delete(out.terms, x)
		out.konst = f.Add(out.konst, f.Mul(c, v))
	}
	return out
}

func refSubstitute(f *ff.Field, a refLC, x int, repl refLC) refLC {
	c, ok := a.terms[x]
	if !ok {
		return a.copy()
	}
	out := a.copy()
	delete(out.terms, x)
	return refAxpy(f, out, c, repl)
}

func refMulLin(f *ff.Field, a, b refLC) refQuad {
	out := newRefQuad()
	out.lin.konst = f.Mul(a.konst, b.konst)
	for v, c := range a.terms {
		out.lin.addTo(f, v, f.Mul(c, b.konst))
	}
	for v, c := range b.terms {
		out.lin.addTo(f, v, f.Mul(c, a.konst))
	}
	for va, ca := range a.terms {
		for vb, cb := range b.terms {
			out.addPair(f, orderedPair(va, vb), f.Mul(ca, cb))
		}
	}
	return out
}

func refQuadAxpy(f *ff.Field, a refQuad, k ff.Element, b refQuad) refQuad {
	out := refQuad{lin: refAxpy(f, a.lin, k, b.lin), quad: map[VarPair]ff.Element{}}
	for p, c := range a.quad {
		out.quad[p] = c
	}
	for p, c := range b.quad {
		out.addPair(f, p, f.Mul(k, c))
	}
	return out
}

func refQuadSubstituteValue(f *ff.Field, a refQuad, x int, v ff.Element) refQuad {
	out := refQuad{lin: refSubstituteValue(f, a.lin, x, v), quad: map[VarPair]ff.Element{}}
	for p, c := range a.quad {
		switch {
		case p.X == x && p.Y == x:
			out.lin.konst = f.Add(out.lin.konst, f.Mul(c, f.Mul(v, v)))
		case p.X == x:
			out.lin.addTo(f, p.Y, f.Mul(c, v))
		case p.Y == x:
			out.lin.addTo(f, p.X, f.Mul(c, v))
		default:
			out.quad[p] = c
		}
	}
	return out
}

func refNormalizeSign(f *ff.Field, a refQuad) refQuad {
	var lead ff.Element
	switch {
	case len(a.quad) > 0:
		var best VarPair
		first := true
		for p, c := range a.quad {
			if first || p.X < best.X || (p.X == best.X && p.Y < best.Y) {
				best, lead, first = p, c, false
			}
		}
	case len(a.lin.terms) > 0:
		best := -1
		for v, c := range a.lin.terms {
			if best < 0 || v < best {
				best, lead = v, c
			}
		}
	default:
		lead = a.lin.konst
	}
	if lead.IsZero() {
		return a.copy()
	}
	return refQuadAxpy(f, refQuad{lin: newRefLC(), quad: map[VarPair]ff.Element{}}, f.MustInv(lead), a)
}

func (r refLC) equal(o refLC) bool {
	if r.konst != o.konst || len(r.terms) != len(o.terms) {
		return false
	}
	for v, c := range r.terms {
		if oc, ok := o.terms[v]; !ok || oc != c {
			return false
		}
	}
	return true
}

func (r refQuad) equal(o refQuad) bool {
	if !r.lin.equal(o.lin) || len(r.quad) != len(o.quad) {
		return false
	}
	for p, c := range r.quad {
		if oc, ok := o.quad[p]; !ok || oc != c {
			return false
		}
	}
	return true
}

// lcMismatch describes how lc differs from the model or breaks the
// representation invariant; "" when it matches.
func lcMismatch(lc *LinComb, want refLC) string {
	for i, t := range lc.terms {
		if t.c.IsZero() {
			return fmt.Sprintf("zero coefficient stored for x%d", t.v)
		}
		if i > 0 && lc.terms[i-1].v >= t.v {
			return fmt.Sprintf("terms not strictly sorted at %d: x%d then x%d", i, lc.terms[i-1].v, t.v)
		}
		if c, ok := want.terms[t.v]; !ok || c != t.c {
			return fmt.Sprintf("coefficient of x%d differs from the model", t.v)
		}
	}
	if len(lc.terms) != len(want.terms) {
		return fmt.Sprintf("%d terms, model has %d", len(lc.terms), len(want.terms))
	}
	if lc.konst != want.konst {
		return "constant differs from the model"
	}
	return ""
}

func quadMismatch(q *Quad, want refQuad) string {
	if m := lcMismatch(q.lin, want.lin); m != "" {
		return "linear part: " + m
	}
	for i, t := range q.quad {
		if t.c.IsZero() {
			return fmt.Sprintf("zero coefficient stored for %v", t.p)
		}
		if t.p.X > t.p.Y {
			return fmt.Sprintf("unordered pair %v", t.p)
		}
		if i > 0 && cmpPair(q.quad[i-1].p, t.p) >= 0 {
			return fmt.Sprintf("pairs not strictly sorted at %d: %v then %v", i, q.quad[i-1].p, t.p)
		}
		if c, ok := want.quad[t.p]; !ok || c != t.c {
			return fmt.Sprintf("coefficient of %v differs from the model", t.p)
		}
	}
	if len(q.quad) != len(want.quad) {
		return fmt.Sprintf("%d pairs, model has %d", len(q.quad), len(want.quad))
	}
	return ""
}

// lcEntry and quadEntry pair a value under test with its model and the Key
// it had when built.
type lcEntry struct {
	lc  *LinComb
	ref refLC
	key string
}

type quadEntry struct {
	q   *Quad
	ref refQuad
	key string
}

// diffHarness runs random operation sequences over one field.
type diffHarness struct {
	t     *testing.T
	f     *ff.Field
	rng   *rand.Rand
	nVars int
	lcs   []lcEntry
	quads []quadEntry
	op    string // the operation under way, for failure messages
}

// coeff draws a coefficient, mostly small signed ones so that sums cancel
// often even over BN254.
func (h *diffHarness) coeff() ff.Element {
	switch h.rng.Intn(4) {
	case 0:
		return h.f.RandFrom(h.rng)
	case 1:
		return ff.Element{}
	default:
		return h.f.NewElement(int64(h.rng.Intn(5) - 2))
	}
}

func (h *diffHarness) variable() int { return h.rng.Intn(h.nVars) }

func (h *diffHarness) pickLC() lcEntry { return h.lcs[h.rng.Intn(len(h.lcs))] }

func (h *diffHarness) pickQuad() quadEntry { return h.quads[h.rng.Intn(len(h.quads))] }

// freshLC builds a value equal to ref through the public constructors, in
// a random term order.
func (h *diffHarness) freshLC(ref refLC) *LinComb {
	lc := Const(h.f, ref.konst)
	for _, v := range h.rng.Perm(h.nVars) {
		if c, ok := ref.terms[v]; ok {
			lc = lc.AddTerm(v, c)
		}
	}
	return lc
}

func (h *diffHarness) addLC(lc *LinComb, ref refLC) {
	if m := lcMismatch(lc, ref); m != "" {
		h.t.Fatalf("%s: result %v: %s", h.op, lc, m)
	}
	e := lcEntry{lc, ref, lc.Key()}
	if len(h.lcs) < 16 {
		h.lcs = append(h.lcs, e)
	} else {
		h.lcs[h.rng.Intn(len(h.lcs))] = e
	}
}

func (h *diffHarness) addQuad(q *Quad, ref refQuad) {
	if m := quadMismatch(q, ref); m != "" {
		h.t.Fatalf("%s: result %v: %s", h.op, q, m)
	}
	e := quadEntry{q, ref, q.Key()}
	if len(h.quads) < 16 {
		h.quads = append(h.quads, e)
	} else {
		h.quads[h.rng.Intn(len(h.quads))] = e
	}
}

// checkUnchanged asserts that no value built so far has changed: its Key is
// the one it had when built and it still equals its model. Operations may
// share storage with their operands, so this is the aliasing contract.
func (h *diffHarness) checkUnchanged() {
	for _, e := range h.lcs {
		if e.lc.Key() != e.key {
			h.t.Fatalf("%s changed an operand's Key: now %v", h.op, e.lc)
		}
		if m := lcMismatch(e.lc, e.ref); m != "" {
			h.t.Fatalf("%s changed an operand %v: %s", h.op, e.lc, m)
		}
	}
	for _, e := range h.quads {
		if e.q.Key() != e.key {
			h.t.Fatalf("%s changed an operand's Key: now %v", h.op, e.q)
		}
		if m := quadMismatch(e.q, e.ref); m != "" {
			h.t.Fatalf("%s changed an operand %v: %s", h.op, e.q, m)
		}
	}
}

// step runs one random operation and checks it.
func (h *diffHarness) step() {
	f := h.f
	switch k := h.rng.Intn(20); k {
	case 0:
		h.op = "LinComb.Add"
		a, b := h.pickLC(), h.pickLC()
		h.addLC(a.lc.Add(b.lc), refAxpy(f, a.ref, f.One(), b.ref))
	case 1:
		h.op = "LinComb.Sub"
		a, b := h.pickLC(), h.pickLC()
		h.addLC(a.lc.Sub(b.lc), refAxpy(f, a.ref, f.NewElement(-1), b.ref))
	case 2:
		h.op = "LinComb.Scale"
		a, c := h.pickLC(), h.coeff()
		h.addLC(a.lc.Scale(c), refScale(f, a.ref, c))
	case 3:
		h.op = "LinComb.Neg"
		a := h.pickLC()
		h.addLC(a.lc.Neg(), refScale(f, a.ref, f.NewElement(-1)))
	case 4:
		h.op = "LinComb.AddTerm"
		a, x, c := h.pickLC(), h.variable(), h.coeff()
		want := a.ref.copy()
		want.addTo(f, x, c)
		h.addLC(a.lc.AddTerm(x, c), want)
	case 5:
		h.op = "LinComb.AddConst"
		a, c := h.pickLC(), h.coeff()
		want := a.ref.copy()
		want.konst = f.Add(want.konst, c)
		h.addLC(a.lc.AddConst(c), want)
	case 6:
		h.op = "LinComb.Substitute"
		a, r, x := h.pickLC(), h.pickLC(), h.variable()
		zero := f.Zero()
		repl, replRef := r.lc.SubstituteValue(x, zero), refSubstituteValue(f, r.ref, x, zero)
		h.addLC(a.lc.Substitute(x, repl), refSubstitute(f, a.ref, x, replRef))
	case 7:
		h.op = "LinComb.SubstituteValue"
		a, x, v := h.pickLC(), h.variable(), h.coeff()
		h.addLC(a.lc.SubstituteValue(x, v), refSubstituteValue(f, a.ref, x, v))
	case 8:
		h.op = "LinComb.SolveFor"
		a, x := h.pickLC(), h.variable()
		got, ok := a.lc.SolveFor(x)
		c, want := a.ref.terms[x]
		if ok != want {
			h.t.Fatalf("SolveFor(x%d) on %v: ok=%v, want %v", x, a.lc, ok, want)
		}
		if ok {
			rest := a.ref.copy()
			delete(rest.terms, x)
			h.addLC(got, refScale(f, rest, f.Neg(f.MustInv(c))))
		}
	case 9:
		h.op = "LinComb.RenameVars"
		a, perm := h.pickLC(), h.rng.Perm(h.nVars)
		want := newRefLC()
		want.konst = a.ref.konst
		for v, c := range a.ref.terms {
			want.terms[perm[v]] = c
		}
		h.addLC(a.lc.RenameVars(func(x int) int { return perm[x] }), want)
	case 10:
		h.op = "MulLin"
		a, b := h.pickLC(), h.pickLC()
		h.addQuad(MulLin(a.lc, b.lc), refMulLin(f, a.ref, b.ref))
	case 11:
		h.op = "QuadFromLin"
		a := h.pickLC()
		h.addQuad(QuadFromLin(a.lc), refQuad{lin: a.ref.copy(), quad: map[VarPair]ff.Element{}})
	case 12:
		h.op = "Quad.Add"
		a, b := h.pickQuad(), h.pickQuad()
		h.addQuad(a.q.Add(b.q), refQuadAxpy(f, a.ref, f.One(), b.ref))
	case 13:
		h.op = "Quad.Sub"
		a, b := h.pickQuad(), h.pickQuad()
		h.addQuad(a.q.Sub(b.q), refQuadAxpy(f, a.ref, f.NewElement(-1), b.ref))
	case 14:
		h.op = "Quad.SubstituteValue"
		a, x, v := h.pickQuad(), h.variable(), h.coeff()
		h.addQuad(a.q.SubstituteValue(x, v), refQuadSubstituteValue(f, a.ref, x, v))
	case 15:
		h.op = "Quad.NormalizeSign"
		a := h.pickQuad()
		h.addQuad(a.q.NormalizeSign(), refNormalizeSign(f, a.ref))
	case 16:
		h.op = "LinComb.Key/Equal"
		a, b := h.pickLC(), h.pickLC()
		if h.rng.Intn(2) == 0 {
			b = lcEntry{h.freshLC(a.ref), a.ref, ""}
		}
		same := a.ref.equal(b.ref)
		if got := a.lc.Equal(b.lc); got != same {
			h.t.Fatalf("Equal(%v, %v) = %v, model says %v", a.lc, b.lc, got, same)
		}
		if got := a.lc.Key() == b.lc.Key(); got != same {
			h.t.Fatalf("Key(%v) == Key(%v) is %v, model says %v", a.lc, b.lc, got, same)
		}
	case 17:
		h.op = "Quad.Key/Equal"
		a, b := h.pickQuad(), h.pickQuad()
		if h.rng.Intn(2) == 0 {
			// Rebuild a's value from scratch: its pairs as products, plus
			// its linear part.
			q := QuadFromLin(h.freshLC(a.ref.lin))
			for p, c := range a.ref.quad {
				q = q.Add(MulLin(Term(f, p.X, c), Var(f, p.Y)))
			}
			b = quadEntry{q, a.ref, ""}
		}
		same := a.ref.equal(b.ref)
		if got := a.q.Equal(b.q); got != same {
			h.t.Fatalf("Equal(%v, %v) = %v, model says %v", a.q, b.q, got, same)
		}
		if got := a.q.Key() == b.q.Key(); got != same {
			h.t.Fatalf("Key(%v) == Key(%v) is %v, model says %v", a.q, b.q, got, same)
		}
	case 19:
		// Adding single monomials keeps some Quads sparse, so a variable
		// often occurs in one pair only, or only squared.
		h.op = "Quad.Add monomial"
		a, x, y, c := h.pickQuad(), h.variable(), h.variable(), h.coeff()
		want := a.ref.copy()
		want.addPair(f, orderedPair(x, y), c)
		h.addQuad(a.q.Add(MulLin(Term(f, x, c), Var(f, y))), want)
	case 18:
		h.op = "random LinComb"
		ref := newRefLC()
		ref.konst = h.coeff()
		for v := 0; v < h.nVars; v++ {
			if c := h.coeff(); h.rng.Intn(2) == 0 && !c.IsZero() {
				ref.terms[v] = c
			}
		}
		h.addLC(h.freshLC(ref), ref)
	}
	h.checkUnchanged()
}

func TestDifferentialAgainstMapModel(t *testing.T) {
	for _, tc := range []struct {
		f     *ff.Field
		nVars int
	}{
		{ff.MustField(big.NewInt(13)), 5},
		{ff.BN254(), 7},
	} {
		t.Run(tc.f.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				h := &diffHarness{t: t, f: tc.f, rng: rand.New(rand.NewSource(seed)), nVars: tc.nVars}
				h.op = "seed"
				h.addLC(NewLinComb(tc.f), newRefLC())
				h.addQuad(NewQuad(tc.f), newRefQuad())
				for i := 0; i < 600; i++ {
					h.step()
				}
			}
		})
	}
}

// TestQuadSubstituteValueKeepsReceiver pins the one aliasing trap of the
// representation: x occurs in a bilinear monomial but not in the linear
// part, so the linear part's SubstituteValue returns the receiver's own
// LinComb, and folding the monomial into it must not write through.
func TestQuadSubstituteValueKeepsReceiver(t *testing.T) {
	for _, f := range []*ff.Field{ff.MustField(big.NewInt(13)), ff.BN254()} {
		lin := Term(f, 1, elt(f, 2)).AddConst(elt(f, 7)) // 2·x1 + 7
		x0x2 := MulLin(Term(f, 0, elt(f, 3)), Var(f, 2)) // 3·x0·x2
		x2sq := MulLin(Term(f, 2, elt(f, 5)), Var(f, 2)) // 5·x2²
		for _, tc := range []struct {
			name string
			q    *Quad
			want *LinComb // the result at x2 = 4
		}{
			{"pair and square", QuadFromLin(lin).Add(x0x2).Add(x2sq),
				Term(f, 0, elt(f, 12)).AddTerm(1, elt(f, 2)).AddConst(elt(f, 87))},
			{"square only", QuadFromLin(lin).Add(x2sq),
				Term(f, 1, elt(f, 2)).AddConst(elt(f, 87))},
		} {
			q := tc.q
			key, linKey := q.Key(), lin.Key()
			if got := q.SubstituteValue(2, elt(f, 4)); !got.Equal(QuadFromLin(tc.want)) {
				t.Errorf("%s, %s: SubstituteValue = %v, want %v", f.Name(), tc.name, got, tc.want)
			}
			if q.Key() != key || q.Lin().Key() != linKey || lin.Key() != linKey {
				t.Errorf("%s, %s: SubstituteValue changed its receiver: now %v", f.Name(), tc.name, q)
			}
			if q.SubstituteValue(5, elt(f, 4)) != q {
				t.Errorf("%s, %s: substituting an absent variable did not return the receiver", f.Name(), tc.name)
			}
		}
	}
}
