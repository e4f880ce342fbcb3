package main

import (
	"fmt"
	"sort"
)

// ledger is one traced solve's accounting, derived from its spans.
type ledger struct {
	self     [nKinds]int64 // main-goroutine self time per boundary, ns
	total    [nKinds]int64 // summed span durations, all goroutines, ns
	calls    [nKinds]int64
	bytesIn  [nKinds]int64
	bytesOut [nKinds]int64
	root     int64 // the solve span's duration, ns
	bgBusy   int64 // union of background encode/write spans, ns
	bgOver   int64 // part of bgBusy overlapping the main goroutine's steps, ns
	problems []string
}

// buildLedger derives self times, counts and bytes from a solve's
// spans: spans[0] is its root, recorded at tracer index base. A span's
// self time is its duration minus its children's. Every main span must
// lie inside its parent, and the self times must add up to the root's
// duration exactly.
func buildLedger(spans []span, base int) ledger {
	var l ledger
	if len(spans) == 0 || spans[0].kind != kSolve {
		l.problems = append(l.problems, "trace window does not start at a solve span")
		return l
	}
	l.root = spans[0].end - spans[0].start
	child := make([]int64, len(spans))
	var bg, steps [][2]int64
	for i, s := range spans {
		d := s.end - s.start
		if s.end == 0 || d < 0 {
			l.problems = append(l.problems, fmt.Sprintf("span %d (%s) never closed", i, kindNames[s.kind]))
			continue
		}
		l.total[s.kind] += d
		l.calls[s.kind]++
		l.bytesIn[s.kind] += s.bytesIn
		l.bytesOut[s.kind] += s.bytesOut
		if !s.main {
			if s.kind == kEncode || s.kind == kWrite {
				bg = append(bg, [2]int64{s.start, s.end})
			}
			continue
		}
		if i == 0 {
			continue
		}
		p := int(s.parent) - base
		if p < 0 || p >= i {
			l.problems = append(l.problems, fmt.Sprintf("main span %d (%s) has no enclosing span", i, kindNames[s.kind]))
			continue
		}
		par := spans[p]
		if s.start < par.start || s.end > par.end {
			l.problems = append(l.problems, fmt.Sprintf("span %d (%s) escapes its parent %s", i, kindNames[s.kind], kindNames[par.kind]))
		}
		child[p] += d
		if s.kind == kStep {
			steps = append(steps, [2]int64{s.start, s.end})
		}
	}
	var sum int64
	for i, s := range spans {
		if !s.main {
			continue
		}
		self := s.end - s.start - child[i]
		if self < 0 {
			l.problems = append(l.problems, fmt.Sprintf("span %d (%s) has negative self time", i, kindNames[s.kind]))
		}
		l.self[s.kind] += self
		sum += self
	}
	if sum != l.root {
		l.problems = append(l.problems, fmt.Sprintf("self times sum to %d ns, the solve took %d ns", sum, l.root))
	}
	merged := union(bg)
	for _, iv := range merged {
		l.bgBusy += iv[1] - iv[0]
	}
	l.bgOver = overlap(merged, steps)
	return l
}

// union merges intervals into a sorted disjoint list.
func union(iv [][2]int64) [][2]int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var out [][2]int64
	for _, v := range iv {
		if n := len(out); n > 0 && v[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], v[1])
			continue
		}
		out = append(out, v)
	}
	return out
}

// overlap measures the intersection of two sorted disjoint interval
// lists.
func overlap(a, b [][2]int64) int64 {
	var tot int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
		if hi > lo {
			tot += hi - lo
		}
		if a[i][1] < b[j][1] {
			i++
		} else {
			j++
		}
	}
	return tot
}
