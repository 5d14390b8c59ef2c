package rados

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

func wireAddr(prefix string, i int) wire.Addr {
	return wire.Addr(fmt.Sprintf("%s%d", prefix, i))
}

var _ = context.Background

func TestWatchNotify(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 20*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "shared", []byte("s")); err != nil {
		t.Fatal(err)
	}

	watcher := NewClient(tc.net, "client.watcher", []int{0})
	if err := watcher.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	h, err := watcher.Watch(ctx, "data", "shared")
	if err != nil {
		t.Fatal(err)
	}

	acked, err := tc.client.Notify(ctx, "data", "shared", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if acked != 1 {
		t.Fatalf("acked = %d, want 1", acked)
	}
	select {
	case ev := <-h.Events():
		if string(ev.Payload) != "ping" || ev.Object != "shared" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification never arrived")
	}
}

// TestNotifyFreshClient: a client that has not fetched an OSD map yet
// can notify, just as an equally fresh client can watch — both fetch
// the map when the cached one cannot place the object.
func TestNotifyFreshClient(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 20*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "fresh", []byte("f")); err != nil {
		t.Fatal(err)
	}
	watcher := NewClient(tc.net, "client.freshwatcher", []int{0})
	h, err := watcher.Watch(ctx, "data", "fresh")
	if err != nil {
		t.Fatalf("fresh client watch: %v", err)
	}
	notifier := NewClient(tc.net, "client.freshnotifier", []int{0})
	acked, err := notifier.Notify(ctx, "data", "fresh", []byte("hi"))
	if err != nil {
		t.Fatalf("fresh client notify: %v", err)
	}
	if acked != 1 {
		t.Fatalf("acked = %d, want 1", acked)
	}
	select {
	case ev := <-h.Events():
		if string(ev.Payload) != "hi" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("notification never arrived")
	}
}

func TestMultipleWatchers(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 20*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "topic", []byte("t")); err != nil {
		t.Fatal(err)
	}
	var handles []*WatchHandle
	for i := 0; i < 3; i++ {
		w := NewClient(tc.net, wireAddr("client.w", i), []int{0})
		if err := w.RefreshMap(ctx); err != nil {
			t.Fatal(err)
		}
		h, err := w.Watch(ctx, "data", "topic")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	acked, err := tc.client.Notify(ctx, "data", "topic", []byte("fan-out"))
	if err != nil || acked != 3 {
		t.Fatalf("acked = %d, %v", acked, err)
	}
	for i, h := range handles {
		select {
		case ev := <-h.Events():
			if string(ev.Payload) != "fan-out" {
				t.Fatalf("watcher %d event = %+v", i, ev)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher %d starved", i)
		}
	}
}

func TestWatchCancel(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 20*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	w := NewClient(tc.net, "client.w", []int{0})
	if err := w.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	h, err := w.Watch(ctx, "data", "o")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := h.Check(ctx)
	if err != nil || !ok {
		t.Fatalf("check = %v, %v", ok, err)
	}
	if err := h.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	ok, err = h.Check(ctx)
	if err != nil || ok {
		t.Fatalf("check after cancel = %v, %v", ok, err)
	}
	acked, err := tc.client.Notify(ctx, "data", "o", []byte("z"))
	if err != nil || acked != 0 {
		t.Fatalf("acked = %d after cancel", acked)
	}
}

func TestDeadWatcherDropped(t *testing.T) {
	tc := bootCluster(t, 3, 2)
	ctx := ctxT(t, 20*time.Second)
	if err := tc.client.WriteFull(ctx, "data", "o", []byte("x")); err != nil {
		t.Fatal(err)
	}
	w := NewClient(tc.net, "client.dead", []int{0})
	if err := w.RefreshMap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Watch(ctx, "data", "o"); err != nil {
		t.Fatal(err)
	}
	// The watcher crashes.
	tc.net.Unlisten("client.dead")
	acked, err := tc.client.Notify(ctx, "data", "o", []byte("z"))
	if err != nil || acked != 0 {
		t.Fatalf("dead watcher acked: %d, %v", acked, err)
	}
	// Its registration was reaped: a second notify doesn't retry it.
	acked, _ = tc.client.Notify(ctx, "data", "o", []byte("z2"))
	if acked != 0 {
		t.Fatal("registration survived")
	}
}
