package replica

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vadasa/internal/pool"
	"vadasa/internal/stream"
)

// BenchmarkReplShipThroughput measures the asynchronous shipping pipeline
// end to end: journaled appends on the primary through the shipper, the
// framed transport, the standby's durable mirror write and the follower
// replay. The timer covers b.N appends plus the drain to Lag()==0, so the
// per-op figure is the pipeline's sustained cost per record, not just the
// primary-side journal write.
func BenchmarkReplShipThroughput(b *testing.B) {
	c := newCluster(b, false, nil)
	ctx := context.Background()
	s := c.openStream(ctx, "bench")
	rows := testRows(0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(ctx, fmt.Sprintf("b%d", i), rows); err != nil {
			b.Fatal(err)
		}
	}
	c.waitCaughtUp()
}

// BenchmarkReplSyncAppendLatency measures a synchronous commit: each Append
// blocks until a standby has made the record durable and acked it, so the
// per-op figure is the full round-trip a -repl-sync deployment pays on the
// write path.
func BenchmarkReplSyncAppendLatency(b *testing.B) {
	c := newCluster(b, true, nil)
	ctx := context.Background()
	s := c.openStream(ctx, "bench")
	rows := testRows(0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(ctx, fmt.Sprintf("b%d", i), rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStandbyRecover restarts a standby over 16 mirrored stream WALs,
// each 150 batches of 20 rows and 5 acked releases (about 147 KB), next to
// the yardstick of a primary's startup recovery over the same files: every
// stream.Open at once. Only Recover and the opens are timed, each on fresh
// copies of the WALs.
func BenchmarkStandbyRecover(b *testing.B) {
	ctx := context.Background()
	src := b.TempDir()
	for n := 0; n < 16; n++ {
		id := fmt.Sprintf("s%02d", n)
		s, err := stream.Open(ctx, id, filepath.Join(src, id+".wal"), testStreamOptions())
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			if _, err := s.Append(ctx, fmt.Sprintf("b%d", i), testRows(20*i, 20)); err != nil {
				b.Fatal(err)
			}
			if i%30 == 29 {
				rel, err := s.Release(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Ack(ctx, rel.Seq); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := s.Close(ctx); err != nil {
			b.Fatal(err)
		}
	}
	wals, err := filepath.Glob(filepath.Join(src, "*.wal"))
	if err != nil {
		b.Fatal(err)
	}
	fresh := func(b *testing.B) string {
		dir, err := os.MkdirTemp(b.TempDir(), "wals")
		if err != nil {
			b.Fatal(err)
		}
		for _, wal := range wals {
			data, err := os.ReadFile(wal)
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(wal)), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		return dir
	}

	b.Run("standby", func(b *testing.B) {
		node, err := OpenNode("s1", filepath.Join(b.TempDir(), NodeJournalName), RoleStandby, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sb, err := NewStandby(StandbyOptions{
				Node:       node,
				Roots:      map[string]Root{"stream": {Dir: fresh(b), Ext: ".wal"}},
				FollowRoot: "stream",
				FollowerOptions: func(*stream.Info) (stream.Options, error) {
					return testStreamOptions(), nil
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			err = sb.Recover(ctx)
			b.StopTimer()
			if err != nil || len(sb.Followers()) != len(wals) {
				b.Fatalf("recovered %d followers of %d: %v", len(sb.Followers()), len(wals), err)
			}
			sb.Close()
		}
	})
	b.Run("stream.Open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := fresh(b)
			streams := make([]*stream.Stream, len(wals))
			b.StartTimer()
			err := pool.ForEach(ctx, 0, len(wals), func(k int) (err error) {
				id := fmt.Sprintf("s%02d", k)
				streams[k], err = stream.Open(ctx, id, filepath.Join(dir, id+".wal"), testStreamOptions())
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, s := range streams {
				s.Close(ctx)
			}
		}
	})
}
