package bufpool

import "testing"

func TestGetRefusesSmallerSlice(t *testing.T) {
	var p Pool[int]
	b := p.Get(4)
	*b = append(*b, 1, 2, 3, 4)
	p.Put(b)
	b = p.Get(100)
	if len(*b) != 0 || cap(*b) < 100 {
		t.Fatalf("Get(100) = len %d cap %d, want len 0 cap >= 100", len(*b), cap(*b))
	}
	p.Put(b)
	b = p.Get(10)
	if len(*b) != 0 || cap(*b) < 10 {
		t.Fatalf("Get(10) = len %d cap %d, want len 0 cap >= 10", len(*b), cap(*b))
	}
}

func TestOfKeysByElementType(t *testing.T) {
	var fs Floats
	if Of[float32](&fs) != &fs.f32 || Of[float64](&fs) != &fs.f64 {
		t.Fatal("Of returns the wrong pool")
	}
}
