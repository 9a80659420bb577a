package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/deps"
)

// multisort sorts seeded int64 keys with apps.MultisortSMPSs: array
// region dependencies (§V) and a recursion-tree graph.
type multisort struct {
	pristine []int64
	data     []int64 // sorted in place by the runtime
	seq      []int64 // sorted in place by seqSolve
	want     []int64 // the input, sorted
	cfg      apps.SortConfig
	ctx      *core.Context
}

func newMultisort(seed int64, keys int) *multisort {
	rng := rand.New(rand.NewSource(seed))
	s := &multisort{
		pristine: make([]int64, keys),
		data:     make([]int64, keys),
		seq:      make([]int64, keys),
		cfg:      apps.DefaultSortConfig,
	}
	for i := range s.pristine {
		s.pristine[i] = rng.Int63()
	}
	s.want = slices.Clone(s.pristine)
	slices.Sort(s.want)
	return s
}

func (s *multisort) bind(ctx *core.Context) { s.ctx = ctx }

func (s *multisort) reset() { copy(s.data, s.pristine) }

func (s *multisort) solve(sp *spans) error {
	t0 := time.Now()
	err := apps.MultisortSMPSs(s.ctx, s.data, s.cfg)
	sp.gen, sp.appBarrier = time.Since(t0), true
	return err
}

// check compares the output with the sorted input: equal means sorted
// and a permutation of the input.
func (s *multisort) check() error {
	for i, v := range s.data {
		if v != s.want[i] {
			return fmt.Errorf("multisort key %d is %d, sorted input has %d", i, v, s.want[i])
		}
	}
	return nil
}

func (s *multisort) corrupt() { s.data[0], s.data[1] = s.data[1], s.data[0] }

func (s *multisort) seqSolve() time.Duration {
	copy(s.seq, s.pristine)
	t0 := time.Now()
	apps.MultisortSeq(s.seq, s.cfg)
	return time.Since(t0)
}

// stream is the region-access stream MultisortSMPSs submits for this
// input: seqquick leaves per QuickSize chunk, then merge levels split
// at the same points its mergeRec picks (which depend on the keys), odd
// runs carried by seqcopy, and the copy back when the result lands in
// the scratch array.  The keys are sorted alongside, level by level, so
// the split points are the real ones.
func (s *multisort) stream() [][]access {
	n, quick, leaf := len(s.data), s.cfg.QuickSize, s.cfg.MergeSize
	region := func(lo, hi int) deps.Region { return deps.Interval(int64(lo), int64(hi)) }
	var out [][]access
	// data and tmp are the identities tasks name; cur and next hold the
	// contents of the current and the next level.
	data, tmp := s.data, make([]int64, n)
	cur, next := slices.Clone(s.pristine), make([]int64, n)
	copyTask := func(from, to []int64, lo, hi int) {
		out = append(out, []access{
			{data: from, mode: deps.ModeIn, region: region(lo, hi)},
			{data: to, mode: deps.ModeOut, region: region(lo, hi)},
		})
	}
	type run struct{ lo, hi int }
	var runs []run
	for at := 0; at < n; at += quick {
		hi := min(at+quick, n) - 1
		runs = append(runs, run{at, hi})
		slices.Sort(cur[at : hi+1])
		out = append(out, []access{{data: data, mode: deps.ModeInOut, region: region(at, hi)}})
	}
	src, dst := data, tmp
	var merge func(lo1, hi1, lo2, hi2, dlo int)
	merge = func(lo1, hi1, lo2, hi2, dlo int) {
		n1, n2 := hi1-lo1+1, hi2-lo2+1
		if n1 < n2 {
			lo1, hi1, lo2, hi2 = lo2, hi2, lo1, hi1
			n1, n2 = n2, n1
		}
		if n1+n2 <= leaf || n1 <= 1 {
			if n1+n2 <= 0 {
				return
			}
			t := []access{
				{data: src, mode: deps.ModeIn, region: region(lo1, hi1)},
				{data: dst, mode: deps.ModeOut, region: region(dlo, dlo+n1+n2-1)},
			}
			if n2 > 0 {
				t = append(t, access{data: src, mode: deps.ModeIn, region: region(lo2, hi2)})
			}
			out = append(out, t)
			mergeInto(next[dlo:dlo+n1+n2], cur[lo1:hi1+1], cur[lo2:hi2+1])
			return
		}
		mid1 := lo1 + n1/2
		split2 := lo2 + sort.Search(n2, func(i int) bool { return cur[lo2+i] >= cur[mid1] })
		left := (mid1 - lo1) + (split2 - lo2)
		merge(lo1, mid1-1, lo2, split2-1, dlo)
		merge(mid1, hi1, split2, hi2, dlo+left)
	}
	for len(runs) > 1 {
		var merged []run
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				r := runs[i]
				copyTask(src, dst, r.lo, r.hi)
				copy(next[r.lo:r.hi+1], cur[r.lo:r.hi+1])
				merged = append(merged, r)
				continue
			}
			a, b := runs[i], runs[i+1]
			merge(a.lo, a.hi, b.lo, b.hi, a.lo)
			merged = append(merged, run{a.lo, b.hi})
		}
		runs = merged
		src, dst = dst, src
		cur, next = next, cur
	}
	if len(runs) == 1 && &src[0] != &data[0] {
		r := runs[0]
		for at := r.lo; at <= r.hi; at += leaf {
			copyTask(src, data, at, min(at+leaf-1, r.hi))
		}
	}
	return out
}

// mergeInto merges the sorted a and b into dst.
func mergeInto(dst, a, b []int64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && a[i] <= b[j]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

func (s *multisort) kinds() []kernelKind { return multisortKinds }

func (s *multisort) rate() rate {
	return rate{name: "mkeys_per_s", unit: "Mkeys/s", perSolve: float64(len(s.data)) / 1e6}
}
