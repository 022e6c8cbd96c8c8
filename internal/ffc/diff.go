package ffc

import (
	"slices"

	"debruijnring/internal/debruijn"
)

// Base is g's fault-free tree, the one the full path builds for no
// faults, as the lookups a caller keeping an embed as edits to it needs
// (EmbedDiff).  In the fault-free graph a node's broadcast depth is its
// digit count, so every necklace r ≠ [0ⁿ] hangs by label r/d from the
// necklace of r/d: the tree follows from the necklace representatives.
// Step 2 closes every star in ascending member order, so the overrides
// follow from the tree.  Only graphs the kernel embeds (at most 2³¹
// nodes) have one.
type Base struct {
	d    int
	reps []int32
}

// BaseOf returns g's Base.  It shares g's necklace-representative
// table, built on first use.
func BaseOf(g *debruijn.Graph) Base { return Base{d: g.D, reps: g.NecklaceReps()} }

// Label returns the label by which necklace r hangs in the base tree,
// −1 when r is not a necklace representative or is [0ⁿ], the root.
func (b Base) Label(r int) int32 {
	if r == 0 || int(b.reps[r]) != r {
		return -1
	}
	return int32(r / b.d)
}

// Centre returns the centre of the base star labelled w, −1 when no
// base tree link carries label w.  Its children are the necklaces
// r = w·d + α with Label(r) = w, and it is the necklace of w.
func (b Base) Centre(w int) int32 {
	for r := w * b.d; r < (w+1)*b.d; r++ {
		if b.Label(r) >= 0 {
			return b.reps[w]
		}
	}
	return -1
}

// edit returns necklace r's tree link as an edit to the base, given the
// star edge st that hangs it (nil for a necklace off the tree), and
// false when st hangs it where the base does.  r hangs in the base.
func (b Base) edit(r int32, st *starEdge) (TreeLink, bool) {
	link := TreeLink{Child: r, Parent: -1, W: -1}
	if st != nil {
		if w := b.Label(int(r)); st.w == w && st.parent == b.reps[w] {
			return link, false
		}
		link.Parent, link.W = st.parent, st.w
	}
	return link, true
}

// fullTreeDiff returns the full path's tree (e.stars, in ascending
// child order) as edits to the base tree, which hangs every necklace
// but [0ⁿ].  [0ⁿ] is never a child: when it is in B* it is the root.
// The edits are gathered in the Embedder's diffBuf and returned as one
// exact-size copy (nil when there are none).
func (e *Embedder) fullTreeDiff() []TreeLink {
	t := BaseOf(e.g)
	diff := e.diffBuf[:0]
	stars := e.stars
	for r := int32(1); int(r) < e.g.Size; r++ {
		if t.reps[r] != r {
			continue
		}
		var st *starEdge
		if len(stars) > 0 && stars[0].child == r {
			st, stars = &stars[0], stars[1:]
		}
		if link, ok := t.edit(r, st); ok {
			diff = append(diff, link)
		}
	}
	e.diffBuf = diff
	if len(diff) == 0 {
		return nil
	}
	return slices.Clone(diff)
}

// deltaTreeDiff returns the delta path's tree as edits to the base: the
// dead and the touched necklaces, with the touched ones in B* (e.stars,
// still in child order) re-hung.  Every one of them hangs in the base.
func (e *Embedder) deltaTreeDiff(dead []int) []TreeLink {
	t := BaseOf(e.g)
	diff := make([]TreeLink, 0, len(dead)+len(e.touched))
	i, j, k := 0, 0, 0
	for i < len(dead) || j < len(e.touched) {
		var r int32
		if j == len(e.touched) || i < len(dead) && int32(dead[i]) < e.touched[j] {
			r = int32(dead[i])
			i++
		} else {
			r = e.touched[j]
			j++
		}
		var st *starEdge
		if k < len(e.stars) && e.stars[k].child == r {
			st = &e.stars[k]
			k++
		}
		if link, ok := t.edit(r, st); ok {
			diff = append(diff, link)
		}
	}
	return diff
}
