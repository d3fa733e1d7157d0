package reader

import (
	"context"
	"testing"

	"rfly/internal/epc"
	"rfly/internal/geom"
	"rfly/internal/rng"
	"rfly/internal/tag"
)

// flakyMedium is silent (or undecodable) for the first badSends Send
// calls, then behaves like a healthy fixed-SNR medium — the shape of a
// relay outage that a watchdog repairs mid-inventory.
type flakyMedium struct {
	inner fakeMedium
	// badRounds counts how many whole inventory attempts should fail;
	// decremented by the onIdle hook, emulating recovery during backoff.
	badRounds int
}

func (m *flakyMedium) Send(cmd epc.Command) []Observation {
	if m.badRounds > 0 {
		return nil // dark relay: nothing reaches anyone
	}
	return m.inner.Send(cmd)
}

func retryTag(seed uint64) *tag.Tag {
	return tag.New(epc.NewEPC96(0xBEEF, 0, 0, 0, 0, uint16(seed)),
		geom.P2(0, 0), tag.DefaultConfig(), rng.New(seed))
}

func TestRetryRecoversAfterOutage(t *testing.T) {
	tg := retryTag(21)
	m := &flakyMedium{inner: fakeMedium{tags: []*tag.Tag{tg}, snrDB: 40}, badRounds: 2}
	r := New(DefaultConfig(), rng.New(22))
	var idles []int
	out, _ := r.RunInventoryRoundWithRetryCtx(context.Background(), m, epc.S0, epc.TargetA,
		epc.NewQAlgorithm(0, 0.3), DefaultRetryPolicy(), func(slots int) {
			idles = append(idles, slots)
			m.badRounds-- // the outage heals while the reader backs off
		})
	if len(out.Stats.Reads) != 1 {
		t.Fatalf("reads = %d, want 1 after recovery", len(out.Stats.Reads))
	}
	if out.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (two dark rounds + one good)", out.Attempts)
	}
	// Backoff must grow: 1 slot, then 2.
	if len(idles) != 2 || idles[0] != 1 || idles[1] != 2 {
		t.Fatalf("backoff gaps = %v, want [1 2]", idles)
	}
	if out.IdleSlots != 3 {
		t.Fatalf("idle slots = %d", out.IdleSlots)
	}
}

func TestRetryGivesUpAtMaxRetries(t *testing.T) {
	tg := retryTag(23)
	m := &flakyMedium{inner: fakeMedium{tags: []*tag.Tag{tg}, snrDB: 40}, badRounds: 100}
	r := New(DefaultConfig(), rng.New(24))
	pol := RetryPolicy{MaxRetries: 2, BackoffSlots: 1, MaxBackoffSlots: 4}
	out, _ := r.RunInventoryRoundWithRetryCtx(context.Background(), m, epc.S0, epc.TargetA,
		epc.NewQAlgorithm(0, 0.3), pol, nil)
	if len(out.Stats.Reads) != 0 {
		t.Fatal("reads through a permanently dark medium")
	}
	if out.Attempts != 3 {
		t.Fatalf("attempts = %d, want 1 + MaxRetries", out.Attempts)
	}
}

func TestRetryNotTriggeredWhenHealthy(t *testing.T) {
	tg := retryTag(25)
	m := &fakeMedium{tags: []*tag.Tag{tg}, snrDB: 40}
	r := New(DefaultConfig(), rng.New(26))
	out, _ := r.RunInventoryRoundWithRetryCtx(context.Background(), m, epc.S0, epc.TargetA,
		epc.NewQAlgorithm(0, 0.3), DefaultRetryPolicy(), func(int) {
			t.Fatal("onIdle called though the first round read the tag")
		})
	if out.Attempts != 1 || out.IdleSlots != 0 {
		t.Fatalf("healthy exchange retried: %+v", out)
	}
	if len(out.Stats.Reads) != 1 {
		t.Fatalf("reads = %d", len(out.Stats.Reads))
	}
}

func TestRetryBackoffCaps(t *testing.T) {
	m := &flakyMedium{inner: fakeMedium{snrDB: 40}, badRounds: 100}
	r := New(DefaultConfig(), rng.New(27))
	pol := RetryPolicy{MaxRetries: 5, BackoffSlots: 1, MaxBackoffSlots: 4}
	var idles []int
	r.RunInventoryRoundWithRetryCtx(context.Background(), m, epc.S0, epc.TargetA,
		epc.NewQAlgorithm(0, 0.3), pol, func(s int) { idles = append(idles, s) })
	want := []int{1, 2, 4, 4, 4}
	if len(idles) != len(want) {
		t.Fatalf("gaps = %v, want %v", idles, want)
	}
	for i := range want {
		if idles[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", idles, want)
		}
	}
}
