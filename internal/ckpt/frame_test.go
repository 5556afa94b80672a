package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// refFrame builds the framing in one buffer, header and payload first and
// their SHA-256 appended: the layout the package comment documents.
func refFrame(payload []byte) []byte {
	buf := append([]byte(Magic), make([]byte, 12)...)
	binary.BigEndian.PutUint32(buf[8:], Version)
	binary.BigEndian.PutUint64(buf[12:], uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...)
}

// TestSaveFrameStreamsFrameBytes pins the streamed frame to the documented
// layout: Frame, WriteFrame and the file SaveFrame leaves on disk all hold
// exactly the reference bytes, for an empty, a one-byte and a
// checkpoint-sized payload.
func TestSaveFrameStreamsFrameBytes(t *testing.T) {
	big := make([]byte, 250_000)
	rand.New(rand.NewSource(1)).Read(big)
	dir := t.TempDir()
	for _, payload := range [][]byte{nil, {0x42}, big} {
		want := refFrame(payload)
		if got := Frame(payload); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: Frame differs from the reference framing", len(payload))
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%d-byte payload: WriteFrame differs from the reference framing (err %v)", len(payload), err)
		}
		path := filepath.Join(dir, "frame.ckpt")
		if err := SaveFrame(path, payload); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: SaveFrame wrote different bytes (err %v)", len(payload), err)
		}
	}
}
