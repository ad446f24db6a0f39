package main

import (
	"fmt"
	"time"

	"thermalherd/internal/trace"
)

// span is one timed call into a layer's public API.
type span struct {
	name       string
	start, end time.Duration // offsets from the job's start
}

// jobTrace holds one job's spans. A nil *jobTrace records nothing, so
// untraced jobs pay only the nil check.
type jobTrace struct {
	t0    time.Time
	spans []span
	total time.Duration
}

func newJobTrace(traced bool) *jobTrace {
	if !traced {
		return nil
	}
	return &jobTrace{t0: time.Now()}
}

// do runs f inside a span named name.
func (jt *jobTrace) do(name string, f func()) {
	if jt == nil {
		f()
		return
	}
	s := time.Now()
	f()
	jt.add(name, s, time.Now())
}

// add records a span named name from start to end.
func (jt *jobTrace) add(name string, start, end time.Time) {
	if jt != nil {
		jt.spans = append(jt.spans, span{name: name, start: start.Sub(jt.t0), end: end.Sub(jt.t0)})
	}
}

// finish closes the job span.
func (jt *jobTrace) finish() {
	if jt != nil {
		jt.total = time.Since(jt.t0)
	}
}

// dur returns the summed duration of the spans named name.
func (jt *jobTrace) dur(name string) time.Duration {
	var d time.Duration
	for _, s := range jt.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// residual is the part of the job span its spans leave uncovered.
func (jt *jobTrace) residual() time.Duration {
	r := jt.total
	for _, s := range jt.spans {
		r -= s.end - s.start
	}
	return r
}

// maxResidual bounds the part of a traced job its spans may leave
// uncovered: the benchmark's own bookkeeping between calls, plus room
// for the host descheduling the process in one of those gaps.
func maxResidual(job time.Duration) time.Duration { return 2*time.Millisecond + job/20 }

// covered reports whether the job's spans cover it but for at most
// maxResidual.
func (jt *jobTrace) covered() bool { return jt.residual() <= maxResidual(jt.total) }

// coverage tallies the traced jobs whose spans leave more than
// maxResidual uncovered. A span that is timed short or not recorded
// leaves every job it belongs to uncovered; the host descheduling the
// process in one of the microsecond gaps between spans leaves a few. So
// the traced run fails only when more than a tenth of its jobs are
// uncovered, and notes the others on stderr.
type coverage struct{ jobs, uncovered int }

func (c *coverage) add(jt *jobTrace) {
	c.jobs++
	if !jt.covered() {
		c.uncovered++
		notef("note: a traced job's spans leave %v of %v uncovered, more than %v", jt.residual(), jt.total, maxResidual(jt.total))
	}
}

func (c *coverage) err() error {
	if c.uncovered*10 > c.jobs {
		return fmt.Errorf("the spans of %d of %d traced jobs leave more than 2 ms + 5%% of the job uncovered", c.uncovered, c.jobs)
	}
	return nil
}

// check verifies that the job's spans are exactly want: each once, in
// order, none overlapping, all inside the job span. A dropped or doubled
// span fails the count, a doubled one also the overlap check. Coverage
// is tallied apart, by coverage.
func (jt *jobTrace) check(want []string) error {
	if len(jt.spans) != len(want) {
		return fmt.Errorf("job has %d spans, want %d (%v)", len(jt.spans), len(want), want)
	}
	var prevEnd time.Duration
	for i, s := range jt.spans {
		if s.name != want[i] {
			return fmt.Errorf("span %d is %q, want %q", i, s.name, want[i])
		}
		if s.start < prevEnd || s.end < s.start {
			return fmt.Errorf("span %q overlaps its predecessor", s.name)
		}
		prevEnd = s.end
	}
	if prevEnd > jt.total {
		return fmt.Errorf("span %q ends %v after the job", jt.spans[len(jt.spans)-1].name, prevEnd-jt.total)
	}
	return nil
}

// timedSource wraps a trace.Source and times one Next call in every
// nextSampleEvery — the trace layer's span, sampled because there is one
// call per instruction and timing each would double its cost.
type timedSource struct {
	src     trace.Source
	calls   int64
	sampled int64
	ns      time.Duration // summed over the sampled calls
}

const nextSampleEvery = 8

func (t *timedSource) Next() (trace.Inst, bool) {
	t.calls++
	if t.calls%nextSampleEvery != 0 {
		return t.src.Next()
	}
	t0 := time.Now()
	in, ok := t.src.Next()
	t.ns += time.Since(t0)
	t.sampled++
	return in, ok
}

// total estimates the time spent in every Next call so far.
func (t *timedSource) total() time.Duration {
	if t.sampled == 0 {
		return 0
	}
	return time.Duration(float64(t.ns) / float64(t.sampled) * float64(t.calls))
}
