package core

import (
	"errors"
	"testing"

	"cloud4home/internal/ids"
	"cloud4home/internal/kv"
)

// TestCollidingNameIsNotServedAsAnotherObject: two names whose 40-bit
// keys collide share one metadata slot. Looking up the name that was
// never stored must report it missing — not fetch, or delete, the
// object that holds the slot.
func TestCollidingNameIsNotServedAsAnotherObject(t *testing.T) {
	stored, other := "photos/img-510638.jpg", "photos/img-877632.jpg"
	if ids.HashString(stored) != ids.HashString(other) {
		t.Fatalf("test names no longer collide: %s vs %s", ids.HashString(stored), ids.HashString(other))
	}
	tb := newTestbed(t, kv.Options{})
	tb.run(func() {
		writer, err := tb.atom.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer writer.Close()
		if err := writer.CreateObject(stored, "jpg", nil); err != nil {
			t.Error(err)
			return
		}
		if _, err := writer.StoreObject(stored, []byte("the stored photo"), 0, StoreOptions{Blocking: true}); err != nil {
			t.Error(err)
			return
		}
		reader, err := tb.desktop.OpenSession()
		if err != nil {
			t.Error(err)
			return
		}
		defer reader.Close()
		if res, err := reader.FetchObject(other); !errors.Is(err, ErrObjectNotFound) {
			t.Errorf("fetch %q: %d bytes, err %v; want ErrObjectNotFound", other, len(res.Data), err)
		}
		if err := reader.DeleteObject(other); !errors.Is(err, ErrObjectNotFound) {
			t.Errorf("delete %q: err %v; want ErrObjectNotFound", other, err)
		}
		res, err := reader.FetchObject(stored)
		if err != nil || string(res.Data) != "the stored photo" {
			t.Errorf("fetch %q after the colliding lookups: %q, %v", stored, res.Data, err)
		}
	})
}
