package rib

import "testing"

func TestDenseBasics(t *testing.T) {
	var d Dense[*Entry]
	if d.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	e1, e2 := &Entry{}, &Entry{}
	d.Set(3, e1)
	d.Set(70, e2)
	d.Set(3, e2) // overwrite must not double-count
	if d.Len() != 2 {
		t.Fatalf("len=%d want 2", d.Len())
	}
	if v, ok := d.Get(3); !ok || v != e2 {
		t.Fatal("get(3)")
	}
	if _, ok := d.Get(4); ok {
		t.Fatal("get(4) should be absent")
	}
	if _, ok := d.Get(-1); ok {
		t.Fatal("get(-1) should be absent")
	}
	var ids []int
	d.Range(func(id int, v *Entry) bool {
		ids = append(ids, id)
		return true
	})
	if len(ids) != 2 || ids[0] != 3 || ids[1] != 70 {
		t.Fatalf("range order %v, want [3 70]", ids)
	}
	if !d.Delete(70) || d.Delete(70) {
		t.Fatal("delete(70)")
	}
	if d.Len() != 1 {
		t.Fatalf("len=%d want 1", d.Len())
	}
}

func TestDenseCloneClearCompact(t *testing.T) {
	var d Dense[int]
	for i := 0; i < 100; i++ {
		d.Set(i, i*i)
	}
	c := d.Clone()
	c.Set(5, -1)
	if v, _ := d.Get(5); v != 25 {
		t.Fatal("clone mutated the original")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatal("clear")
	}
	c.Range(func(int, int) bool { t.Fatal("range over cleared table"); return false })
}
