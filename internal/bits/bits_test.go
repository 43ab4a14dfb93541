package bits

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddHasRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Has(i) {
			t.Errorf("new set has %d", i)
		}
		s.Add(i)
		if !s.Has(i) {
			t.Errorf("after Add(%d), Has = false", i)
		}
	}
	if got := s.Len(); got != 8 {
		t.Errorf("Len = %d, want 8", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Error("Remove(64) did not remove")
	}
	if got := s.Len(); got != 7 {
		t.Errorf("Len after remove = %d, want 7", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", i)
				}
			}()
			s.Add(i)
		}()
	}
}

func TestUnionWithReportsChange(t *testing.T) {
	a, b := New(100), New(100)
	b.Add(5)
	b.Add(70)
	if !a.UnionWith(b) {
		t.Error("first union should report change")
	}
	if a.UnionWith(b) {
		t.Error("second union should not report change")
	}
	if !a.Equal(b) {
		t.Errorf("a = %v, want %v", a, b)
	}
}

func TestIntersectAndDifference(t *testing.T) {
	a, b := New(64), New(64)
	for i := 0; i < 64; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 64; i += 3 {
		b.Add(i)
	}
	inter := a.Clone()
	inter.IntersectWith(b)
	inter.ForEach(func(i int) {
		if i%6 != 0 {
			t.Errorf("intersection contains %d", i)
		}
	})
	diff := a.Clone()
	diff.DifferenceWith(b)
	diff.ForEach(func(i int) {
		if i%2 != 0 || i%3 == 0 {
			t.Errorf("difference contains %d", i)
		}
	})
}

func TestMembersOrderedAndString(t *testing.T) {
	s := New(200)
	for _, i := range []int{190, 3, 64, 5} {
		s.Add(i)
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{3, 5, 64, 190}) {
		t.Errorf("Members = %v", got)
	}
	if got := s.String(); got != "{3, 5, 64, 190}" {
		t.Errorf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := New(32)
	a.Add(1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Error("mutating clone changed original")
	}
	a.Clear()
	if !b.Has(1) {
		t.Error("clearing original changed clone")
	}
	if !a.Empty() {
		t.Error("Clear did not empty the set")
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UnionWith with mismatched capacity did not panic")
		}
	}()
	New(10).UnionWith(New(20))
}

// Property: union is commutative and idempotent; difference then union
// restores a superset relationship.
func TestSetAlgebraProperties(t *testing.T) {
	const n = 97 // deliberately not a multiple of 64
	mk := func(xs []uint8) *Set {
		s := New(n)
		for _, x := range xs {
			s.Add(int(x) % n)
		}
		return s
	}
	commutative := func(xs, ys []uint8) bool {
		a1, b1 := mk(xs), mk(ys)
		a1.UnionWith(b1)
		a2, b2 := mk(xs), mk(ys)
		b2.UnionWith(a2)
		return a1.Equal(b2)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("union not commutative: %v", err)
	}
	idempotent := func(xs []uint8) bool {
		a, b := mk(xs), mk(xs)
		a.UnionWith(b)
		return a.Equal(b)
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("union not idempotent: %v", err)
	}
	lenConsistent := func(xs []uint8) bool {
		s := mk(xs)
		return s.Len() == len(s.Members())
	}
	if err := quick.Check(lenConsistent, nil); err != nil {
		t.Errorf("Len inconsistent with Members: %v", err)
	}
}

func TestNextSet(t *testing.T) {
	s := New(200)
	members := []int{0, 3, 63, 64, 100, 190, 199}
	for _, i := range members {
		s.Add(i)
	}
	var got []int
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		got = append(got, i)
	}
	if !reflect.DeepEqual(got, members) {
		t.Errorf("NextSet iteration = %v, want %v", got, members)
	}
	if got := s.NextSet(1); got != 3 {
		t.Errorf("NextSet(1) = %d, want 3", got)
	}
	if got := s.NextSet(65); got != 100 {
		t.Errorf("NextSet(65) = %d, want 100", got)
	}
	if got := s.NextSet(-5); got != 0 {
		t.Errorf("NextSet(-5) = %d, want 0", got)
	}
	if got := New(64).NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
	if got := s.NextSet(200); got != -1 {
		t.Errorf("NextSet past capacity = %d, want -1", got)
	}
}

func TestNextSetMatchesForEach(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		s := New(1 << 16)
		for _, v := range raw {
			s.Add(int(v))
		}
		var a, b []int
		s.ForEach(func(i int) { a = append(a, i) })
		for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
			b = append(b, i)
		}
		return reflect.DeepEqual(a, b)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestForEachWord(t *testing.T) {
	s := New(300)
	for _, i := range []int{1, 64, 65, 299} {
		s.Add(i)
	}
	rebuilt := New(300)
	words := 0
	s.ForEachWord(func(wi int, w uint64) {
		words++
		for b := 0; b < 64; b++ {
			if w&(1<<uint(b)) != 0 {
				rebuilt.Add(wi*64 + b)
			}
		}
	})
	if words != 3 {
		t.Errorf("ForEachWord visited %d words, want 3 (zero words must be skipped)", words)
	}
	if !rebuilt.Equal(s) {
		t.Errorf("ForEachWord rebuilt %v, want %v", rebuilt, s)
	}
}

func TestAppendMembers(t *testing.T) {
	s := New(100)
	s.Add(5)
	s.Add(70)
	buf := make([]int, 0, 8)
	got := s.AppendMembers(buf)
	if !reflect.DeepEqual(got, []int{5, 70}) {
		t.Errorf("AppendMembers = %v, want [5 70]", got)
	}
	got = s.AppendMembers(got[:0])
	if !reflect.DeepEqual(got, []int{5, 70}) {
		t.Errorf("AppendMembers reuse = %v, want [5 70]", got)
	}
	if !reflect.DeepEqual(s.Members(), []int{5, 70}) {
		t.Errorf("Members = %v, want [5 70]", s.Members())
	}
}

// TestNewSlabSetsAreIndependent fills every set of a slab to capacity
// in turn and checks its neighbours never see a member, including at
// a capacity that leaves a partial last word.
func TestNewSlabSetsAreIndependent(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		sets := NewSlab(4, n)
		for i, s := range sets {
			if s.Cap() != n {
				t.Fatalf("n=%d: set %d capacity %d", n, i, s.Cap())
			}
			for j := 0; j < n; j++ {
				s.Add(j)
			}
			other := New(n)
			for j := 0; j < n; j++ {
				other.Add(j)
			}
			s.UnionWith(other)
			for k, o := range sets {
				if want := 0; k > i && o.Len() != want {
					t.Fatalf("n=%d: filling set %d leaked %d members into set %d", n, i, o.Len(), k)
				}
			}
		}
	}
}

// Property: AppendMaskedMembers is the members of s ∩ (m0 ∪ m1 ∪ m2),
// ascending, appended after whatever dst held.
func TestAppendMaskedMembersMatchesIntersection(t *testing.T) {
	const n = 150
	mk := func(xs []uint8) *Set {
		s := New(n)
		for _, x := range xs {
			s.Add(int(x) % n)
		}
		return s
	}
	prop := func(xs, m0, m1, m2 []uint8, k uint8) bool {
		s := mk(xs)
		masks := []*Set{mk(m0), mk(m1), mk(m2)}[:k%4]
		u := New(n)
		for _, m := range masks {
			u.UnionWith(m)
		}
		u.IntersectWith(s)
		want := append([]int{-1}, u.Members()...)
		return reflect.DeepEqual(s.AppendMaskedMembers([]int{-1}, masks), want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
