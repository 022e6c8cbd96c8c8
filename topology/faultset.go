package topology

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Edge is a directed network link from one processor to another.
type Edge struct {
	From, To int
}

// FaultSet is a unified description of failed components: processors
// (Nodes) and links (Edges) together, replacing the ad-hoc []int / []Edge
// split of the original per-topology APIs.  The zero value is the empty
// fault set.  FaultSet values are treated as immutable by this package.
//
// A set is canonical when Nodes is ascending and Edges ascending by
// CompareEdges, neither repeating an entry: what Canonical, Union and
// Minus return.  HasNode, HasEdge and Severs, the one membership test
// every ring producer and checker asks, binary-search the lists and so
// need a canonical set.  Every other method, and VerifyRing and
// NodeFaultBound, take any set; Minus, Key, VerifyRing and
// NodeFaultBound read the lists they search through a view that copies
// and sorts only a list that is not canonical already.
type FaultSet struct {
	Nodes []int
	Edges []Edge
}

// NodeFaults returns a fault set of failed processors.
func NodeFaults(nodes ...int) FaultSet { return FaultSet{Nodes: nodes} }

// EdgeFaults returns a fault set of failed links.
func EdgeFaults(edges ...Edge) FaultSet { return FaultSet{Edges: edges} }

// IsEmpty reports whether no component has failed.
func (f FaultSet) IsEmpty() bool { return len(f.Nodes) == 0 && len(f.Edges) == 0 }

// CompareEdges orders links by source, then target: the order of a
// canonical fault set's Edges.  It compares ids rather than subtracting
// them, so math.MinInt and math.MaxInt from outside input order
// correctly.
func CompareEdges(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
}

// Canonical returns a copy with nodes and edges sorted and deduplicated.
// Two fault sets describing the same failures canonicalize identically.
func (f FaultSet) Canonical() FaultSet {
	var out FaultSet
	if len(f.Nodes) > 0 {
		out.Nodes = slices.Clone(f.Nodes)
		slices.Sort(out.Nodes)
		out.Nodes = slices.Compact(out.Nodes)
	}
	if len(f.Edges) > 0 {
		out.Edges = slices.Clone(f.Edges)
		slices.SortFunc(out.Edges, CompareEdges)
		out.Edges = slices.Compact(out.Edges)
	}
	return out
}

// canonical is the no-copy view of outside input: each list of f as it
// is when it is canonical already, else its sorted, deduplicated copy.
func (f FaultSet) canonical() FaultSet {
	return FaultSet{Nodes: canonicalNodes(f.Nodes), Edges: canonicalEdges(f.Edges)}
}

// canonicalNodes is the no-copy view of one node list: nodes itself when
// it is strictly ascending, else the Nodes of its Canonical copy.
func canonicalNodes(nodes []int) []int {
	if strictlyAscending(nodes, cmp.Compare[int]) {
		return nodes
	}
	return FaultSet{Nodes: nodes}.Canonical().Nodes
}

// canonicalEdges is canonicalNodes for a link list.
func canonicalEdges(edges []Edge) []Edge {
	if strictlyAscending(edges, CompareEdges) {
		return edges
	}
	return FaultSet{Edges: edges}.Canonical().Edges
}

// strictlyAscending reports whether every element of s orders after the
// one before it.
func strictlyAscending[T any](s []T, compare func(a, b T) int) bool {
	for i := 1; i < len(s); i++ {
		if compare(s[i-1], s[i]) >= 0 {
			return false
		}
	}
	return true
}

// HasNode reports whether the canonical set f lists processor v.
//
//ringlint:noalloc
func (f FaultSet) HasNode(v int) bool {
	lo, hi := 0, len(f.Nodes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if f.Nodes[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(f.Nodes) && f.Nodes[lo] == v
}

// HasEdge reports whether the canonical set f lists the link u→w.
//
//ringlint:noalloc
func (f FaultSet) HasEdge(u, w int) bool {
	e := Edge{From: u, To: w}
	lo, hi := 0, len(f.Edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if CompareEdges(f.Edges[m], e) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(f.Edges) && f.Edges[lo] == e
}

// Severs reports whether a link fault of the canonical set f cuts the
// hop u→w: the link itself, or on an undirected network (see
// Undirected), where a failed wire carries traffic neither way, the
// link w→u.
//
//ringlint:noalloc
func (f FaultSet) Severs(undirected bool, u, w int) bool {
	return f.HasEdge(u, w) || undirected && f.HasEdge(w, u)
}

// Union returns the canonical union of f and g — the merge operation
// behind incrementally growing fault sets (session fault streams add
// faults batch by batch and never remove them).  Duplicates across the
// two operands collapse, so Union is idempotent and order-insensitive:
// f.Union(g).Key() == g.Union(f).Key().
func (f FaultSet) Union(g FaultSet) FaultSet {
	var out FaultSet
	if len(f.Nodes)+len(g.Nodes) > 0 {
		out.Nodes = make([]int, 0, len(f.Nodes)+len(g.Nodes))
		out.Nodes = append(append(out.Nodes, f.Nodes...), g.Nodes...)
	}
	if len(f.Edges)+len(g.Edges) > 0 {
		out.Edges = make([]Edge, 0, len(f.Edges)+len(g.Edges))
		out.Edges = append(append(out.Edges, f.Edges...), g.Edges...)
	}
	return out.Canonical()
}

// Minus returns the canonical subset of f not already present in g: the
// genuinely new faults of an incremental add on top of the accumulated
// set g.  Node and edge faults are independent — a node fault does not
// absorb link faults touching the same endpoint (the ring may need to
// avoid the link in a direction the node removal alone would not cover;
// callers that want subsumption filter explicitly).
func (f FaultSet) Minus(g FaultSet) FaultSet {
	f, g = f.canonical(), g.canonical()
	var out FaultSet
	for _, v := range f.Nodes {
		if !g.HasNode(v) {
			out.Nodes = append(out.Nodes, v)
		}
	}
	for _, e := range f.Edges {
		if !g.HasEdge(e.From, e.To) {
			out.Edges = append(out.Edges, e)
		}
	}
	return out
}

// Key renders the canonicalized fault set as a deterministic string,
// suitable for memoization keyed by (topology, fault set).  It is
// computed on every engine cache lookup, so the digits are appended with
// strconv onto one preallocated buffer instead of through fmt, and a
// set that is canonical already is not copied.
func (f FaultSet) Key() string {
	c := f.canonical()
	// "n:" + ";e:" + per-fault digits (≤ 20 each) and separators.
	buf := make([]byte, 0, 8+21*len(c.Nodes)+42*len(c.Edges))
	buf = append(buf, 'n', ':')
	for i, v := range c.Nodes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	buf = append(buf, ';', 'e', ':')
	for i, e := range c.Edges {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(e.From), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(e.To), 10)
	}
	return string(buf)
}

// Validate checks every fault against the network: node ids in range and
// edge faults actual network links.
func (f FaultSet) Validate(net Network) error {
	size := net.Nodes()
	for _, v := range f.Nodes {
		if v < 0 || v >= size {
			return fmt.Errorf("topology: faulty node %d out of range [0,%d) in %s", v, size, net.Name())
		}
	}
	for _, e := range f.Edges {
		if e.From < 0 || e.From >= size || e.To < 0 || e.To >= size {
			return fmt.Errorf("topology: faulty link (%d,%d) out of range in %s", e.From, e.To, net.Name())
		}
		if !net.IsEdge(e.From, e.To) {
			return fmt.Errorf("topology: (%s,%s) is not a link of %s",
				net.Label(e.From), net.Label(e.To), net.Name())
		}
	}
	return nil
}

// ParseFaults resolves processor labels and labeled links into a
// FaultSet — the shared front-end codepath for the HTTP service and the
// batch CLI.
func ParseFaults(net Network, nodeLabels []string, edgeLabels [][2]string) (FaultSet, error) {
	var fs FaultSet
	for _, label := range nodeLabels {
		v, err := net.Parse(label)
		if err != nil {
			return FaultSet{}, err
		}
		fs.Nodes = append(fs.Nodes, v)
	}
	for _, e := range edgeLabels {
		from, err := net.Parse(e[0])
		if err != nil {
			return FaultSet{}, err
		}
		to, err := net.Parse(e[1])
		if err != nil {
			return FaultSet{}, err
		}
		fs.Edges = append(fs.Edges, Edge{From: from, To: to})
	}
	return fs, nil
}
