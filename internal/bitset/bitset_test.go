package bitset

import (
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Add(%d) not visible", i)
		}
		s.Remove(i)
		if s.Contains(i) {
			t.Fatalf("Remove(%d) not visible", i)
		}
	}
}

func TestClearList(t *testing.T) {
	s := New(256)
	members := []int32{3, 64, 100, 255}
	for _, i := range members {
		s.Add(int(i))
	}
	s.Add(7)
	s.ClearList(members)
	for _, i := range members {
		if s.Contains(int(i)) {
			t.Fatalf("ClearList left bit %d set", i)
		}
	}
	if !s.Contains(7) {
		t.Fatal("ClearList cleared an unlisted bit")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

// Property: a Set agrees with a map[int]bool model under a random op
// sequence.
func TestQuickAgainstMapModel(t *testing.T) {
	f := func(ops []uint16) bool {
		s := New(512)
		model := map[int]bool{}
		for _, op := range ops {
			i := int(op % 512)
			switch (op / 512) % 3 {
			case 0:
				s.Add(i)
				model[i] = true
			case 1:
				s.Remove(i)
				delete(model, i)
			case 2:
				if s.Contains(i) != model[i] {
					return false
				}
			}
		}
		for i := 0; i < 512; i++ {
			if s.Contains(i) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
