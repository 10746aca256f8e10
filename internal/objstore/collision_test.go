package objstore

import (
	"bytes"
	"strings"
	"testing"

	"cloud4home/internal/ids"
)

// collidingNames share one 40-bit DHT key (found by a birthday search
// over "photos/img-%d.jpg").
var collidingNames = [2]string{"photos/img-510638.jpg", "photos/img-877632.jpg"}

// TestCollidingNamesKeepTheirOwnPayloads is the regression test for
// payloads keyed by the 40-bit name hash: two names that collide on one
// node must each read back their own bytes, on both backends, and
// deleting one must leave the other intact.
func TestCollidingNamesKeepTheirOwnPayloads(t *testing.T) {
	a, b := collidingNames[0], collidingNames[1]
	if ids.HashString(a) != ids.HashString(b) {
		t.Fatalf("test names no longer collide: %s vs %s", ids.HashString(a), ids.HashString(b))
	}
	disk, err := NewDisk(t.TempDir(), 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"mem": NewMem(1<<20, 1<<20), "disk": disk} {
		if err := s.Put(Mandatory, Object{Name: a}, []byte("payload of a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(Mandatory, Object{Name: b}, []byte("payload of b")); err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{a, b} {
			_, got, err := s.Get(n)
			if err != nil {
				t.Fatalf("%s: get %q: %v", name, n, err)
			}
			want := "payload of a"
			if n == b {
				want = "payload of b"
			}
			if string(got) != want {
				t.Fatalf("%s: get %q returned %q", name, n, got)
			}
		}
		if err := s.Replace(Object{Name: b}, []byte("new payload of b")); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(a); err != nil {
			t.Fatal(err)
		}
		if _, got, err := s.Get(b); err != nil || string(got) != "new payload of b" {
			t.Fatalf("%s: after deleting %q, %q reads %q, %v", name, a, b, got, err)
		}
	}
}

// TestDiskLongNamesRoundTrip: names whose encoding exceeds one file-name
// component are split into directories and still map one-to-one.
func TestDiskLongNamesRoundTrip(t *testing.T) {
	s, err := NewDisk(t.TempDir(), 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("n", 150)
	names := []string{long, long + "x", long[:nameSegment/2]}
	for i, n := range names {
		if err := s.Put(Voluntary, Object{Name: n}, []byte{byte(i)}); err != nil {
			t.Fatalf("put %d-byte name: %v", len(n), err)
		}
	}
	for i, n := range names {
		if _, got, err := s.Get(n); err != nil || !bytes.Equal(got, []byte{byte(i)}) {
			t.Fatalf("get %d-byte name: %v, %v", len(n), got, err)
		}
	}
}
