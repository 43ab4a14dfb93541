// Package bits provides a dense bit set used by the dataflow and
// slicing engines. Sets are fixed-capacity (sized at creation by node
// count) and support the handful of operations iterative dataflow
// needs: set/clear/test, union, intersection, difference, copy, and
// ordered iteration.
package bits

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New for a usable set.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set able to hold members 0..n-1.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bits.New: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewSlab returns count empty sets, each able to hold members
// 0..n-1, carved from one shared backing allocation. Dense analyses
// that keep one set per node or per variable use it to pay three
// allocations instead of two per set; the sets are independent for
// every operation (none can grow into a neighbour).
func NewSlab(count, n int) []*Set {
	if n < 0 || count < 0 {
		panic(fmt.Sprintf("bits.NewSlab: negative size %d x %d", count, n))
	}
	w := (n + wordBits - 1) / wordBits
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	out := make([]*Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w], n: n}
		out[i] = &sets[i]
	}
	return out
}

// Cap returns the capacity of the set (the n given to New).
func (s *Set) Cap() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bits: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Len returns the number of members.
func (s *Set) Len() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all members.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// Copy overwrites s with the contents of other. The sets must have the
// same capacity.
func (s *Set) Copy(other *Set) {
	s.sameCap(other)
	copy(s.words, other.words)
}

func (s *Set) sameCap(other *Set) {
	if s.n != other.n {
		panic(fmt.Sprintf("bits: capacity mismatch %d vs %d", s.n, other.n))
	}
}

// UnionWith adds every member of other to s and reports whether s
// changed. The changed report lets dataflow loops detect fixpoints
// without comparing whole sets.
func (s *Set) UnionWith(other *Set) bool {
	s.sameCap(other)
	changed := false
	for i, w := range other.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith removes members of s not present in other.
func (s *Set) IntersectWith(other *Set) {
	s.sameCap(other)
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// DifferenceWith removes every member of other from s.
func (s *Set) DifferenceWith(other *Set) {
	s.sameCap(other)
	for i := range s.words {
		s.words[i] &^= other.words[i]
	}
}

// Equal reports whether s and other contain the same members.
func (s *Set) Equal(other *Set) bool {
	s.sameCap(other)
	for i := range s.words {
		if s.words[i] != other.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for each member in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// ForEachWord calls fn for each nonzero word of the set, passing the
// word index (members in the word are wi*64 + bit offsets). It is the
// word-granular counterpart of ForEach for callers that can process
// 64 members at a time.
func (s *Set) ForEachWord(fn func(wi int, w uint64)) {
	for wi, w := range s.words {
		if w != 0 {
			fn(wi, w)
		}
	}
}

// NextSet returns the smallest member >= i, or -1 if there is none.
// It enables allocation- and closure-free iteration:
//
//	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) { ... }
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Members returns the members in increasing order.
func (s *Set) Members() []int {
	return s.AppendMembers(make([]int, 0, s.Len()))
}

// AppendMembers appends the members in increasing order to dst and
// returns the extended slice, letting hot paths reuse a scratch
// buffer across calls.
func (s *Set) AppendMembers(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// AppendMaskedMembers appends to dst, in increasing order, every
// member of s that also belongs to at least one of masks (all of s's
// capacity), and returns the extended slice: the members of
// s ∩ (masks[0] ∪ masks[1] ∪ …) without materializing the union.
func (s *Set) AppendMaskedMembers(dst []int, masks []*Set) []int {
	for _, m := range masks {
		s.sameCap(m)
	}
	for wi, w := range s.words {
		if w == 0 {
			continue
		}
		var u uint64
		for _, m := range masks {
			u |= m.words[wi]
		}
		for w &= u; w != 0; w &= w - 1 {
			dst = append(dst, wi*wordBits+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
	})
	sb.WriteByte('}')
	return sb.String()
}
