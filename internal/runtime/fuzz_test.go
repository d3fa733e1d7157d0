package runtime

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// corruptTruncateFrame cuts a checkpoint mid-frame but re-seals it with
// a valid CRC of the shortened body, so the decoder must reject it on
// the truncation path, not the checksum path.
func corruptTruncateFrame(ckpt []byte) []byte {
	body := ckpt[:len(ckpt)-4]
	cut := body[:len(body)-len(body)/3]
	out := append([]byte(nil), cut...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(cut))
}

// corruptFlipCRC flips one bit in the trailer so the frame body is
// intact but the seal is wrong.
func corruptFlipCRC(ckpt []byte) []byte {
	out := append([]byte(nil), ckpt...)
	out[len(out)-2] ^= 0x40
	return out
}

// versionFrame patches a checkpoint's version field to ver and re-seals
// the CRC: an intact frame that claims a version Restore does not read.
func versionFrame(ckpt []byte, ver uint16) []byte {
	body := append([]byte(nil), ckpt[:len(ckpt)-4]...)
	binary.LittleEndian.PutUint16(body[4:6], ver)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// streamBlockLen is the encoded size of a present v3 stream block for
// cfg's lattice: flag + cols + rows + cells×(re, im).
func streamBlockLen(cfg Config) int {
	e, err := New(cfg)
	if err != nil || e.solver == nil {
		return 0
	}
	cols, rows := e.solver.Dims()
	return 1 + 4 + 4 + 16*cols*rows
}

// corruptStreamFlag drops the stream accumulator block entirely and
// clears its presence flag, re-sealing the CRC: an intact-looking frame
// whose grid is missing for a config that demands one.
func corruptStreamFlag(cfg Config, ckpt []byte) []byte {
	body := append([]byte(nil), ckpt[:len(ckpt)-4]...)
	body = body[:len(body)-streamBlockLen(cfg)]
	body = append(body, 0)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// corruptStreamDims bumps the stream grid's column count and re-seals
// the CRC: a valid frame whose lattice disagrees with the config.
func corruptStreamDims(cfg Config, ckpt []byte) []byte {
	body := append([]byte(nil), ckpt[:len(ckpt)-4]...)
	pos := len(body) - streamBlockLen(cfg) + 1 // skip the presence flag
	cols := binary.LittleEndian.Uint32(body[pos:])
	binary.LittleEndian.PutUint32(body[pos:], cols+1)
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// FuzzCheckpointDecode: Restore faces bytes from disk (and, since the
// federation tier, bytes from a replica peer), which a crash, a torn
// write, or a hostile filesystem can have mangled arbitrarily. It must
// never panic, never over-allocate on a corrupt length prefix, reject
// every mangled frame with a typed error (errors.Is
// ErrInvalidCheckpoint), and anything it does accept must re-encode to
// its identical bytes (one canonical form per version).
func FuzzCheckpointDecode(f *testing.F) {
	cfg := testConfig(5)
	e, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(e.SnapshotCtx(context.Background()))
	fresh, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh.SnapshotCtx(context.Background()))
	f.Add([]byte("RFC1"))
	f.Add([]byte{})
	// Adversarial v2 frames: a truncated frame re-sealed with a valid
	// CRC (torn write that happened to land on a sector boundary), a
	// full frame with a flipped CRC bit, and a swarm-fleet checkpoint
	// offered to a fleetless mission config.
	f.Add(corruptTruncateFrame(e.SnapshotCtx(context.Background())))
	f.Add(corruptFlipCRC(e.SnapshotCtx(context.Background())))
	// Adversarial v3 stream-block frames: the accumulator dropped from a
	// SAR mission's frame, and a grid whose dims disagree with the
	// config-derived lattice.
	f.Add(corruptStreamFlag(cfg, e.SnapshotCtx(context.Background())))
	f.Add(corruptStreamDims(cfg, e.SnapshotCtx(context.Background())))
	se, err := New(swarmConfig(5))
	if err != nil {
		f.Fatal(err)
	}
	if err := se.RunSorties(context.Background(), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(se.SnapshotCtx(context.Background()))
	// Intact frames stamped with versions Restore no longer reads.
	f.Add(versionFrame(e.SnapshotCtx(context.Background()), 3))
	f.Add(versionFrame(e.SnapshotCtx(context.Background()), 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		e2, err := Restore(cfg, data)
		if err != nil {
			if !errors.Is(err, ErrInvalidCheckpoint) {
				t.Fatalf("rejection is not typed (want errors.Is ErrInvalidCheckpoint): %v", err)
			}
			return
		}
		if re := e2.SnapshotCtx(context.Background()); !bytes.Equal(re, data) {
			t.Fatalf("accepted checkpoint is not canonical: re-encoded %d bytes from %d", len(re), len(data))
		}
	})
}

// TestRestoreTypedErrors pins the rejection taxonomy: truncation,
// checksum damage, and config mismatch each surface their own sentinel,
// and every one of them is an ErrInvalidCheckpoint. Intact frames of the
// retired versions 3 and 4 are rejected as the root class.
func TestRestoreTypedErrors(t *testing.T) {
	cfg := testConfig(5)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ckpt := e.SnapshotCtx(context.Background())

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated-frame", corruptTruncateFrame(ckpt), ErrCheckpointTruncated},
		{"too-short", ckpt[:8], ErrCheckpointTruncated},
		{"flipped-crc", corruptFlipCRC(ckpt), ErrCheckpointCRC},
		{"stream-block-missing", corruptStreamFlag(cfg, ckpt), ErrCheckpointConfigMismatch},
		{"stream-dims-mismatch", corruptStreamDims(cfg, ckpt), ErrCheckpointConfigMismatch},
		{"version-3", versionFrame(ckpt, 3), ErrInvalidCheckpoint},
		{"version-4", versionFrame(ckpt, 4), ErrInvalidCheckpoint},
	}
	for _, tc := range cases {
		_, err := Restore(cfg, tc.data)
		if err == nil {
			t.Fatalf("%s: corrupted checkpoint accepted", tc.name)
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not match its sentinel", tc.name, err)
		}
		if !errors.Is(err, ErrInvalidCheckpoint) {
			t.Errorf("%s: error %v is not an ErrInvalidCheckpoint", tc.name, err)
		}
	}

	other := testConfig(6) // different seed → different config hash
	if _, err := Restore(other, ckpt); !errors.Is(err, ErrCheckpointConfigMismatch) {
		t.Errorf("cross-config restore error %v is not ErrCheckpointConfigMismatch", err)
	}
}

// TestCheckpointSink: the sink fires once per committed sortie with the
// exact bytes Snapshot would produce at that boundary — the engine-side
// contract the federation replication path leans on.
func TestCheckpointSink(t *testing.T) {
	cfg := testConfig(9)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sorties []int
	var blobs [][]byte
	e.CheckpointSink = func(done int, ckpt []byte) {
		sorties = append(sorties, done)
		blobs = append(blobs, ckpt)
	}
	if _, err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sorties) != cfg.Sorties {
		t.Fatalf("sink fired %d times for %d sorties", len(sorties), cfg.Sorties)
	}
	for i, n := range sorties {
		if n != i+1 {
			t.Fatalf("sink %d reported %d sorties done", i, n)
		}
	}
	if !bytes.Equal(blobs[len(blobs)-1], e.SnapshotCtx(context.Background())) {
		t.Fatal("final sink checkpoint differs from Snapshot at mission end")
	}
	// A mid-flight sink blob must resume to the same final state as the
	// uninterrupted engine.
	r, err := Restore(cfg, blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.SnapshotCtx(context.Background()), e.SnapshotCtx(context.Background())) {
		t.Fatal("resume from sink checkpoint diverged from uninterrupted run")
	}
}
