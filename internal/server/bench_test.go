package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/server/client"
)

// BenchmarkServerGet is the request-level hot path: resident-hit GETs over
// loopback TCP through the real client, so one op is the client's encode,
// the round trip, the server's read, admission, B-tree + heap lookup and
// reply, and the client's decode. clients=N drives N connections at once;
// allocations count both ends, which share the process.
func BenchmarkServerGet(b *testing.B) {
	for _, clients := range []int{1, 2} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			// 64 records fill 32 heap pages: with the index, the whole table
			// fits the pool, so after one warming pass every GET is a hit.
			const customers = 64
			srv, _ := startServer(b, db.Config{Frames: 64}, Config{}, customers)
			ctx := context.Background()
			cls := make([]*client.Client, clients)
			for i := range cls {
				cls[i] = dial(b, srv)
			}
			for id := int64(0); id < customers; id++ {
				if _, err := cls[0].Get(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for _, cl := range cls {
				wg.Add(1)
				go func(cl *client.Client) {
					defer wg.Done()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						if _, err := cl.Get(ctx, i%customers); err != nil {
							b.Error(err)
							return
						}
					}
				}(cl)
			}
			wg.Wait()
		})
	}
}
