package poly

import (
	"cmp"
	"fmt"
	"math/big" //qed2:allow-mathbig — rendering and signed-magnitude display only
	"slices"
	"strings"

	"qed2/internal/ff"
)

// VarPair identifies the bilinear monomial x·y with X ≤ Y.
type VarPair struct{ X, Y int }

func orderedPair(a, b int) VarPair {
	if a > b {
		a, b = b, a
	}
	return VarPair{a, b}
}

// Quad is a canonical multivariate polynomial of total degree ≤ 2:
//
//	Σ q_{ij}·xᵢ·xⱼ + Σ cᵢ·xᵢ + c₀
//
// The quadratic part is a slice of nonzero monomials sorted by variable
// pair. Quads are the expanded, canonical view of rank-1 constraints
// ⟨A,s⟩·⟨B,s⟩−⟨C,s⟩: two constraints are semantically identical iff their
// Quads are equal. Like LinComb, a Quad is immutable once built and may
// share its parts with the operands it was built from.
type Quad struct {
	f    *ff.Field
	lin  *LinComb
	quad []quadTerm // ascending by pair, nonzero coefficients only
}

// quadTerm is one bilinear monomial c·x·y of a Quad.
type quadTerm struct {
	p VarPair
	c ff.Element
}

// cmpPair orders pairs by X, then Y.
func cmpPair(a, b VarPair) int {
	if a.X != b.X {
		return cmp.Compare(a.X, b.X)
	}
	return cmp.Compare(a.Y, b.Y)
}

// NewQuad returns the zero quadratic polynomial.
func NewQuad(f *ff.Field) *Quad { return &Quad{f: f, lin: NewLinComb(f)} }

// QuadFromLin lifts a linear combination to a Quad that shares lc.
func QuadFromLin(lc *LinComb) *Quad { return &Quad{f: lc.f, lin: lc} }

// MulLin returns the product a·b of two linear combinations as a Quad.
func MulLin(a, b *LinComb) *Quad {
	if !a.f.SameField(b.f) {
		panic("poly: MulLin across fields")
	}
	f := a.f
	// (a₀ + Σaᵢxᵢ)(b₀ + Σbⱼxⱼ): the linear part is a₀·Σbⱼxⱼ + b₀·Σaᵢxᵢ.
	var terms []term
	switch {
	case a.konst.IsZero() && b.konst.IsZero():
	case a.konst.IsZero():
		terms = scaleTerms(f, a.terms, b.konst)
	case b.konst.IsZero():
		terms = scaleTerms(f, b.terms, a.konst)
	default:
		terms = mergeTerms(f, scaleTerms(f, a.terms, b.konst), -1, b.terms, mergeScale, a.konst)
	}
	q := &Quad{f: f, lin: &LinComb{f: f, konst: f.Mul(a.konst, b.konst), terms: terms}}
	if len(a.terms) == 0 || len(b.terms) == 0 {
		return q
	}
	prods := make([]quadTerm, 0, len(a.terms)*len(b.terms))
	for _, ta := range a.terms {
		for _, tb := range b.terms {
			prods = append(prods, quadTerm{orderedPair(ta.v, tb.v), f.Mul(ta.c, tb.c)})
		}
	}
	slices.SortFunc(prods, func(x, y quadTerm) int { return cmpPair(x.p, y.p) })
	// Fold runs of equal pairs in place, dropping sums that vanish.
	n := 0
	for i := 0; i < len(prods); {
		cur := prods[i]
		for i++; i < len(prods) && prods[i].p == cur.p; i++ {
			cur.c = f.Add(cur.c, prods[i].c)
		}
		if !cur.c.IsZero() {
			prods[n] = cur
			n++
		}
	}
	q.quad = prods[:n]
	return q
}

// Field returns the coefficient field.
func (q *Quad) Field() *ff.Field { return q.f }

// Lin returns the linear (plus constant) part. The result aliases internal
// state and must not be mutated.
func (q *Quad) Lin() *LinComb { return q.lin }

// IsZero reports whether q is identically zero.
func (q *Quad) IsZero() bool { return len(q.quad) == 0 && q.lin.IsZero() }

// IsLinear reports whether the quadratic part is empty.
func (q *Quad) IsLinear() bool { return len(q.quad) == 0 }

// IsConst reports whether q is a constant, returning it when so.
func (q *Quad) IsConst() (ff.Element, bool) {
	if len(q.quad) == 0 && q.lin.IsConst() {
		return q.lin.Constant(), true
	}
	return ff.Element{}, false
}

// Degree returns 0, 1 or 2.
func (q *Quad) Degree() int {
	if len(q.quad) > 0 {
		return 2
	}
	if !q.lin.IsConst() {
		return 1
	}
	return 0
}

// mergeQuadTerms returns the sorted, zero-free sum a + b, or a − b when
// sub is set.
func mergeQuadTerms(f *ff.Field, a, b []quadTerm, sub bool) []quadTerm {
	out := make([]quadTerm, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		d := 1 // which side holds the next pair: < 0 a, > 0 b, 0 both
		if j == len(b) {
			d = -1
		} else if i < len(a) {
			d = cmpPair(a[i].p, b[j].p)
		}
		if d < 0 {
			out = append(out, a[i])
			i++
			continue
		}
		c := b[j].c
		if sub {
			c = f.Neg(c)
		}
		if d == 0 {
			c = f.Add(a[i].c, c)
			i++
		}
		if !c.IsZero() {
			out = append(out, quadTerm{b[j].p, c})
		}
		j++
	}
	return out
}

// Add returns q + other.
func (q *Quad) Add(other *Quad) *Quad {
	quad := q.quad
	switch {
	case len(other.quad) == 0:
	case len(q.quad) == 0:
		quad = other.quad
	default:
		quad = mergeQuadTerms(q.f, q.quad, other.quad, false)
	}
	return &Quad{f: q.f, lin: q.lin.Add(other.lin), quad: quad}
}

// Sub returns q - other.
func (q *Quad) Sub(other *Quad) *Quad {
	quad := q.quad
	if len(other.quad) > 0 {
		quad = mergeQuadTerms(q.f, q.quad, other.quad, true)
	}
	return &Quad{f: q.f, lin: q.lin.Sub(other.lin), quad: quad}
}

// Neg returns -q.
func (q *Quad) Neg() *Quad { return q.Scale(q.f.Neg(q.f.One())) }

// Scale returns k·q.
func (q *Quad) Scale(k ff.Element) *Quad {
	if k.IsZero() {
		return NewQuad(q.f)
	}
	out := &Quad{f: q.f, lin: q.lin.Scale(k), quad: make([]quadTerm, len(q.quad))}
	for i, t := range q.quad {
		out.quad[i] = quadTerm{t.p, q.f.Mul(t.c, k)}
	}
	return out
}

// Vars returns the set of variables occurring in q, ascending.
func (q *Quad) Vars() []int {
	out := q.lin.Vars()
	for _, t := range q.quad {
		out = append(out, t.p.X, t.p.Y)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Eval evaluates q under the assignment fn, allocation-free.
func (q *Quad) Eval(fn func(x int) ff.Element) ff.Element {
	acc := q.lin.Eval(fn)
	for _, t := range q.quad {
		acc = q.f.Add(acc, q.f.Mul(t.c, q.f.Mul(fn(t.p.X), fn(t.p.Y))))
	}
	return acc
}

// EvalMap is Eval over a map; absent variables read as zero.
func (q *Quad) EvalMap(m map[int]ff.Element) ff.Element {
	return q.Eval(func(x int) ff.Element { return m[x] })
}

// SubstituteValue returns q with variable x fixed to the constant v. When
// x does not occur it returns q itself.
func (q *Quad) SubstituteValue(x int, v ff.Element) *Quad {
	f := q.f
	lin := q.lin.SubstituteValue(x, v)
	// Pairs are sorted, so the partners y of the monomials y·x (y < x) and
	// then x·y (y > x) come out ascending: add is already a sorted term list.
	rest := make([]quadTerm, 0, len(q.quad))
	var add []term
	var konst ff.Element
	for _, t := range q.quad {
		switch {
		case t.p.X == x && t.p.Y == x:
			konst = f.Mul(f.Mul(t.c, v), v)
		case t.p.X == x:
			add = append(add, term{t.p.Y, f.Mul(t.c, v)})
		case t.p.Y == x:
			add = append(add, term{t.p.X, f.Mul(t.c, v)})
		default:
			rest = append(rest, t)
		}
	}
	if len(rest) == len(q.quad) {
		if lin == q.lin {
			return q
		}
		return &Quad{f: f, lin: lin, quad: q.quad}
	}
	// lin may be q.lin itself, so the result gets a fresh LinComb.
	terms := lin.terms
	if len(add) > 0 {
		terms = mergeTerms(f, lin.terms, -1, add, mergeAdd, ff.Element{})
	}
	return &Quad{f: f, lin: &LinComb{f: f, konst: f.Add(lin.konst, konst), terms: terms}, quad: rest}
}

// CoeffPair returns the coefficient of the monomial xᵢ·xⱼ.
func (q *Quad) CoeffPair(i, j int) ff.Element {
	p := orderedPair(i, j)
	if k, ok := slices.BinarySearchFunc(q.quad, p, func(t quadTerm, p VarPair) int { return cmpPair(t.p, p) }); ok {
		return q.quad[k].c
	}
	return ff.Element{}
}

// NumQuadTerms returns the number of distinct bilinear monomials.
func (q *Quad) NumQuadTerms() int { return len(q.quad) }

// VisitQuadTerms calls fn for every bilinear monomial in canonical
// (sorted-pair) order, without allocating.
func (q *Quad) VisitQuadTerms(fn func(p VarPair, coeff ff.Element)) {
	for _, t := range q.quad {
		fn(t.p, t.c)
	}
}

// Equal reports canonical equality of two quadratic polynomials.
func (q *Quad) Equal(other *Quad) bool {
	return q.f.SameField(other.f) && q.lin.Equal(other.lin) && slices.Equal(q.quad, other.quad)
}

// Key returns a canonical string for hashing/deduplication, unique up to
// polynomial identity. Like LinComb.Key it encodes raw limb bytes: cheap,
// canonical per field, never printed.
func (q *Quad) Key() string {
	buf := make([]byte, 0, len(q.quad)*(16+8*ff.ElementLimbs)+64)
	for _, t := range q.quad {
		buf = appendVarID(buf, t.p.X)
		buf = appendVarID(buf, t.p.Y)
		buf = t.c.AppendRawBytes(buf)
	}
	buf = append(buf, '#')
	return string(buf) + q.lin.Key()
}

// NormalizeSign returns q scaled so that its leading coefficient (first
// bilinear monomial in pair order, else first linear coefficient, else the
// constant) equals 1, yielding a canonical representative of the equation
// q = 0 modulo nonzero scaling. The zero polynomial, and a q already
// normalized, is returned as is.
func (q *Quad) NormalizeSign() *Quad {
	var lead ff.Element
	switch {
	case len(q.quad) > 0:
		lead = q.quad[0].c
	case len(q.lin.terms) > 0:
		lead = q.lin.terms[0].c
	default:
		lead = q.lin.konst
	}
	if lead.IsZero() || q.f.IsOne(lead) {
		return q
	}
	return q.Scale(q.f.MustInv(lead))
}

// String renders the polynomial; variables print as x<i>.
func (q *Quad) String() string {
	return q.StringNamed(func(x int) string { return fmt.Sprintf("x%d", x) })
}

// StringNamed renders the polynomial with the given variable namer.
func (q *Quad) StringNamed(name func(x int) string) string {
	var parts []string
	for _, t := range q.quad {
		p, c := t.p, q.f.Signed(t.c)
		mono := name(p.X) + "*" + name(p.Y)
		if p.X == p.Y {
			mono = name(p.X) + "²"
		}
		switch {
		case c.Cmp(oneInt) == 0:
			parts = append(parts, "+ "+mono)
		case c.Cmp(minusOneInt) == 0:
			parts = append(parts, "- "+mono)
		case c.Sign() < 0:
			parts = append(parts, fmt.Sprintf("- %v*%s", new(big.Int).Neg(c), mono))
		default:
			parts = append(parts, fmt.Sprintf("+ %v*%s", c, mono))
		}
	}
	linStr := q.lin.StringNamed(name)
	if linStr != "0" {
		if strings.HasPrefix(linStr, "-") {
			parts = append(parts, "- "+linStr[1:])
		} else {
			parts = append(parts, "+ "+linStr)
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	s := strings.Join(parts, " ")
	s = strings.TrimPrefix(s, "+ ")
	if strings.HasPrefix(s, "- ") {
		s = "-" + s[2:]
	}
	return s
}
