package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"rfly/internal/fleet"
	"rfly/internal/obs"
	"rfly/internal/runtime"
)

// resumeAt is the sortie boundary the resume workload restores from.
const resumeAt = 2

// kept is one corpus mission: its config, the checkpoint taken at the
// resumeAt boundary, and the uninterrupted result a resume must match.
type kept struct {
	cfg  runtime.Config
	ckpt []byte
	want runtime.MissionResult
}

// missionConfig is the runtime config a node with config c would fly
// req under: the in-process twin of a served mission.
func missionConfig(c fleet.Config, req fleet.SubmitRequest) runtime.Config {
	r := fleet.Request{
		Region:    req.Region,
		ChannelHz: req.ChannelHz,
		Priority:  req.Priority,
		Seed:      req.Seed,
		SARPoints: req.SARPoints,
		Exclusive: req.Exclusive,
	}
	for _, t := range req.Tags {
		r.Tags = append(r.Tags, runtime.TagSpec{ID: t.ID, X: t.X, Y: t.Y, Z: t.Z})
	}
	return fleet.MissionConfig(c, r, 0)
}

// twin flies req in process as runtime.New(fleet.MissionConfig(...)).Run:
// the reference a served mission must match bit for bit.
func twin(w *workload, req fleet.SubmitRequest) (runtime.MissionResult, error) {
	e, err := runtime.New(missionConfig(w.node, req))
	if err != nil {
		return runtime.MissionResult{}, err
	}
	return e.Run(context.Background())
}

// buildCorpus flies n missions drawn from g through runtime.New on
// workers goroutines, keeping each one's resumeAt checkpoint and result.
func buildCorpus(w *workload, g *gen, n, workers int) ([]kept, error) {
	corpus := make([]kept, n)
	for i := range corpus {
		corpus[i].cfg = missionConfig(w.node, g.next())
	}
	err := parallel(n, workers, func(i int) error {
		k := &corpus[i]
		e, err := runtime.New(k.cfg)
		if err != nil {
			return err
		}
		e.CheckpointSink = func(done int, ckpt []byte) {
			if done == resumeAt {
				k.ckpt = ckpt
			}
		}
		if k.want, err = e.Run(context.Background()); err != nil {
			return fmt.Errorf("corpus mission %d: %w", i, err)
		}
		if k.ckpt == nil {
			return fmt.Errorf("corpus mission %d published no sortie-%d checkpoint", i, resumeAt)
		}
		return nil
	})
	return corpus, err
}

// resumeOp restores k's checkpoint, flies the remaining sorties and
// checks the result is bit-identical to the uninterrupted run. rec, when
// set, records the op's spans.
func resumeOp(k *kept, rec *obs.Recorder) *op {
	o := &op{due: time.Now()}
	ctx := obs.WithRecorder(context.Background(), rec)
	e, err := runtime.Restore(k.cfg, k.ckpt)
	if err != nil {
		o.fail(failed, "restore: %v", err)
		return o
	}
	got, err := e.Run(ctx)
	o.doneAt = time.Now()
	if err != nil {
		o.fail(failed, "resumed run: %v", err)
		return o
	}
	if msg := sameResult(got, k.want); msg != "" {
		o.fail(failed, "resume differs from the uninterrupted run: %s", msg)
		return o
	}
	o.class = completed
	return o
}

// sameResult is empty when a and b are bit-identical, else it says how
// they differ.
func sameResult(a, b runtime.MissionResult) string {
	if a.LocOK != b.LocOK || math.Float64bits(a.LocX) != math.Float64bits(b.LocX) ||
		math.Float64bits(a.LocY) != math.Float64bits(b.LocY) {
		return fmt.Sprintf("localization (%v %v,%v) vs (%v %v,%v)", a.LocOK, a.LocX, a.LocY, b.LocOK, b.LocX, b.LocY)
	}
	if a.CSV() != b.CSV() {
		return "sortie rows differ"
	}
	return ""
}

// corpusFixes are the corpus missions' localizations; every resume op
// is gated to reproduce its mission's bits.
func corpusFixes(corpus []kept) []fix {
	out := make([]fix, len(corpus))
	for i, k := range corpus {
		t := k.cfg.Tags[0]
		out[i] = fixOf(fleet.TagInput{X: t.X, Y: t.Y}, k.want.LocOK, k.want.LocX, k.want.LocY)
	}
	return out
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
