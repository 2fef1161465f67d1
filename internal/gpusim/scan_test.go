package gpusim

import (
	"testing"
	"testing/quick"
)

func TestQuickScanU32MatchesSerial(t *testing.T) {
	f := func(v []uint32) bool {
		got := make([]uint32, len(v))
		copy(got, v)
		BlockInclusiveScan(got)
		var sum uint32
		for i, x := range v {
			sum += x
			if got[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickScanU64MatchesSerial(t *testing.T) {
	f := func(v []uint64) bool {
		got := make([]uint64, len(v))
		copy(got, v)
		BlockInclusiveScan(got)
		var sum uint64
		for i, x := range v {
			sum += x
			if got[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickExclusiveScanInt(t *testing.T) {
	f := func(raw []uint16) bool {
		v := make([]int, len(raw))
		want := make([]int, len(raw))
		sum := 0
		for i, x := range raw {
			v[i] = int(x)
			want[i] = sum
			sum += int(x)
		}
		if BlockExclusiveScan(v) != sum {
			return false
		}
		for i := range v {
			if v[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
