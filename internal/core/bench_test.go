package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/stats"
)

// replacerFrames is the buffer size the replacer benchmarks model: lrukd's
// default pool of 404 frames.
const replacerFrames = 404

// BenchmarkReplacerHit measures the replacer's share of a resident hit:
// the pool's pin (SetEvictable false), the reference, and the unpin
// (SetEvictable true), on a full pool of evictable pages chosen at random.
func BenchmarkReplacerHit(b *testing.B) {
	r := NewReplacer(2, Options{})
	for p := policy.PageID(0); p < replacerFrames; p++ {
		r.RecordAccess(p)
		r.SetEvictable(p, true)
	}
	rng := stats.NewRNG(1)
	refs := make([]policy.PageID, 4096)
	for i := range refs {
		refs[i] = policy.PageID(rng.Intn(replacerFrames))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := refs[i%len(refs)]
		r.SetEvictable(p, false)
		r.RecordAccess(p)
		r.SetEvictable(p, true)
	}
}

// BenchmarkReplacerMiss measures the replacer's share of a miss on a full
// pool: choose and remove a victim, admit the missing page, unpin it. The
// missing page is the longest non-resident of a universe twice the pool,
// so history stays bounded and every victim has a finite or infinite
// Backward K-distance mix like a steady-state pool's.
func BenchmarkReplacerMiss(b *testing.B) {
	r := NewReplacer(2, Options{})
	var out []policy.PageID
	for p := policy.PageID(0); p < 2*replacerFrames; p++ {
		if p < replacerFrames {
			r.RecordAccess(p)
			r.SetEvictable(p, true)
		} else {
			out = append(out, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := r.Evict()
		if !ok {
			b.Fatal("no victim in a full pool")
		}
		p := out[i%len(out)]
		out[i%len(out)] = v
		r.RecordAccess(p)
		r.SetEvictable(p, true)
	}
}
