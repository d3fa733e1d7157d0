package runtime

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"rfly/internal/capture"
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

// v3Frame re-encodes a live engine's state as a version-3 checkpoint:
// the v5 plan-provenance flag and the v4 capture-log block spliced out,
// the legacy flat sar buffer spliced in, version field patched, CRC
// re-sealed. It is what a checkpoint written by the previous releases
// looks like, byte for byte, and is white-box on purpose — the engine no
// longer writes v3.
func v3Frame(e *Engine) []byte {
	v5 := e.Snapshot()
	body := v5[:len(v5)-4]
	// Drop the plan flag at offset 18 (magic + version + config hash +
	// cursor); v3 frames predate the provenance block. The test engines fly
	// no plan, so the flag byte is the whole block.
	body = append(append([]byte(nil), body[:18]...), body[19:]...)
	sLen := 0
	if e.solver != nil {
		_, _, _, cols, rows, _ := e.solver.Grid()
		sLen = 1 + 4 + 4 + 16*cols*rows
	}
	stream := body[len(body)-sLen:]
	logLen := 1 // hasLog flag
	if e.capLog != nil {
		logLen += 4 + len(e.capLog.Snapshot())
	}
	out := append([]byte(nil), body[:len(body)-sLen-logLen]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(e.sar)))
	for _, m := range e.sar {
		for _, f := range []float64{m.Pos.X, m.Pos.Y, m.Pos.Z, real(m.H), imag(m.H)} {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		}
		if m.Unlocked {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	out = append(out, stream...)
	binary.LittleEndian.PutUint16(out[4:6], 3)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// streamBlockLen is the encoded size of a present v3 stream block for
// cfg's lattice: flag + cols + rows + cells×(re, im).
func streamBlockLen(cfg Config) int {
	e, err := New(cfg)
	if err != nil || e.solver == nil {
		return 0
	}
	_, _, _, cols, rows, _ := e.solver.Grid()
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
// ErrInvalidCheckpoint), and anything it does accept must re-encode
// canonically: a v4 frame to its identical bytes (one canonical form
// per current version), an accepted legacy v3 frame to a v4 frame that
// is itself a fixed point of restore→snapshot.
func FuzzCheckpointDecode(f *testing.F) {
	cfg := testConfig(5)
	e, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(e.Snapshot())
	fresh, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fresh.Snapshot())
	f.Add([]byte("RFC1"))
	f.Add([]byte{})
	// Adversarial v2 frames: a truncated frame re-sealed with a valid
	// CRC (torn write that happened to land on a sector boundary), a
	// full frame with a flipped CRC bit, and a swarm-fleet checkpoint
	// offered to a fleetless mission config.
	f.Add(corruptTruncateFrame(e.Snapshot()))
	f.Add(corruptFlipCRC(e.Snapshot()))
	// Adversarial v3 stream-block frames: the accumulator dropped from a
	// SAR mission's frame, and a grid whose dims disagree with the
	// config-derived lattice.
	f.Add(corruptStreamFlag(cfg, e.Snapshot()))
	f.Add(corruptStreamDims(cfg, e.Snapshot()))
	se, err := New(swarmConfig(5))
	if err != nil {
		f.Fatal(err)
	}
	if err := se.RunSorties(context.Background(), 1); err != nil {
		f.Fatal(err)
	}
	f.Add(se.Snapshot())
	// Legacy v3 frames: the previous release's encoding, which Restore
	// must keep reading (and upgrading) without loosening the rejection
	// contract for mangled ones.
	f.Add(v3Frame(e))
	f.Add(corruptTruncateFrame(v3Frame(e)))
	f.Fuzz(func(t *testing.T, data []byte) {
		e2, err := Restore(cfg, data)
		if err != nil {
			if !errors.Is(err, ErrInvalidCheckpoint) {
				t.Fatalf("rejection is not typed (want errors.Is ErrInvalidCheckpoint): %v", err)
			}
			return
		}
		re := e2.Snapshot()
		if ver := binary.LittleEndian.Uint16(data[4:6]); ver == ckptVersion {
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted v%d checkpoint is not canonical: re-encoded %d bytes from %d",
					ver, len(re), len(data))
			}
			return
		}
		// Accepted legacy frame: its upgrade must be a fixed point.
		e3, err := Restore(cfg, re)
		if err != nil {
			t.Fatalf("upgraded legacy checkpoint rejected: %v", err)
		}
		if got := e3.Snapshot(); !bytes.Equal(got, re) {
			t.Fatalf("legacy upgrade is not a fixed point: %d bytes then %d", len(re), len(got))
		}
	})
}

// TestRestoreV3Compat: a checkpoint written by the previous release (flat
// sar buffer, no capture log) restores, reconstructs a capture log that
// agrees with its sortie results, and finishes the mission with the same
// committed rows as the uninterrupted engine. The reconstructed log
// carries NaN SNR (v3 never stored per-point SNR), so the upgraded frame
// is a new fixed point rather than the live engine's bytes.
func TestRestoreV3Compat(t *testing.T) {
	cfg := testConfig(11)
	live, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.RunSorties(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	v3 := v3Frame(live)

	r, err := Restore(cfg, v3)
	if err != nil {
		t.Fatalf("v3 checkpoint rejected: %v", err)
	}
	rLog := r.CaptureLog()
	if rLog == nil {
		t.Fatal("v3 restore reconstructed no capture log")
	}
	rd, err := capture.OpenLog(rLog)
	if err != nil {
		t.Fatalf("reconstructed log unreadable: %v", err)
	}
	wantRecs := 0
	for _, s := range r.results {
		wantRecs += s.SARPoints
	}
	if int(rd.Records()) != wantRecs {
		t.Fatalf("reconstructed log has %d records, results claim %d", rd.Records(), wantRecs)
	}
	for i := 0; i < rd.NumSegments(); i++ {
		seg := rd.Segment(i)
		for j := 0; j < seg.Count(); j++ {
			if !math.IsNaN(seg.Record(j).SNRdB()) {
				t.Fatalf("reconstructed record %d/%d SNR is %v, want NaN", i, j, seg.Record(j).SNRdB())
			}
		}
	}

	// The upgraded frame is version 4 and a fixed point.
	up := r.Snapshot()
	if ver := binary.LittleEndian.Uint16(up[4:6]); ver != uint16(ckptVersion) {
		t.Fatalf("upgraded checkpoint is version %d, want %d", ver, ckptVersion)
	}
	r2, err := Restore(cfg, up)
	if err != nil {
		t.Fatalf("upgraded checkpoint rejected: %v", err)
	}
	if !bytes.Equal(r2.Snapshot(), up) {
		t.Fatal("upgraded checkpoint is not a fixed point")
	}

	// The mission's committed rows are unaffected by the upgrade.
	if err := live.RunSorties(context.Background(), cfg.Sorties-2); err != nil {
		t.Fatal(err)
	}
	if err := r.RunSorties(context.Background(), cfg.Sorties-2); err != nil {
		t.Fatal(err)
	}
	if got, want := r.ResultCtx(context.Background()).CSV(), live.ResultCtx(context.Background()).CSV(); got != want {
		t.Fatalf("v3-resumed mission diverged:\n%s\nvs live:\n%s", got, want)
	}
}

// TestRestoreTypedErrors pins the rejection taxonomy: truncation,
// checksum damage, and config mismatch each surface their own sentinel,
// and every one of them is an ErrInvalidCheckpoint.
func TestRestoreTypedErrors(t *testing.T) {
	cfg := testConfig(5)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunSorties(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ckpt := e.Snapshot()

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
	if !bytes.Equal(blobs[len(blobs)-1], e.Snapshot()) {
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
	if !bytes.Equal(r.Snapshot(), e.Snapshot()) {
		t.Fatal("resume from sink checkpoint diverged from uninterrupted run")
	}
}
