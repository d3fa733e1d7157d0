package fleet

import (
	"context"
	"errors"
	"strconv"
	"time"

	"rfly/internal/obs"
	"rfly/internal/reader"
	"rfly/internal/runtime"
)

// Batching: one sortie serves every member of a batch. The flight, the
// relay supervision, and the end-of-mission SAR solve are the expensive
// parts of a mission and none of them scale with the tenant count, so
// coalescing compatible requests — same region, same channel plan —
// amortizes them. The batch's tag table is the concatenation of the
// members' tag lists; demux slices the engine's cumulative per-tag
// inventory back out by offset.

// tagSegment records where a member's tags landed in the batch config.
type tagSegment struct{ off, n int }

// MissionConfig builds the runtime config a single request flies under
// scheduler config c. seq stands in for an unset seed (the batch head's
// arrival sequence); a request with an explicit Seed ignores it. This is
// exported because the federation tier's failover proof needs to fly the
// exact config a node would — an in-process twin built from the same
// (Config, Request) pair is the bit-identical reference for a resumed
// mission.
func MissionConfig(c Config, req Request, seq uint64) runtime.Config {
	region := Regions[req.Region]
	seed := req.Seed
	if seed == 0 {
		// Arrival-sequence derived: distinct per batch, reproducible
		// from the mission record.
		seed = 0x9E3779B97F4A7C15 ^ seq
	}
	ch := req.ChannelHz
	if ch == 0 {
		ch = DefaultChannelHz
	}

	cfg := runtime.DefaultConfig(seed)
	cfg.Sorties = c.Sorties
	if cfg.Sorties <= 0 {
		cfg.Sorties = 1
	}
	cfg.TicksPerSortie = c.TicksPerSortie
	if cfg.TicksPerSortie <= 0 {
		cfg.TicksPerSortie = 12
	}
	cfg.CorridorLengthM = region.CorridorLengthM
	cfg.CorridorWidthM = region.CorridorWidthM
	cfg.ReaderPos = region.ReaderPos
	cfg.RelayPos = region.RelayPos
	cfg.ShadowSigmaDB = region.ShadowSigmaDB
	cfg.ChannelHz = ch
	cfg.SARPointsPerSortie = req.SARPoints
	cfg.Schedule.Events = nil

	// Service missions jitter their retry backoff: with a
	// worker per shard retrying in lockstep scale, synchronized backoff
	// windows would re-collide (the audit in reader/retry.go); the
	// draws come from each deployment's own stream, so shards never
	// share RNG state.
	cfg.Retry = reader.DefaultRetryPolicy()
	cfg.Retry.JitterSlots = 2

	cfg.Tags = append(cfg.Tags[:0], req.Tags...)
	return cfg
}

// missionConfig builds the runtime config one batch flies, plus each
// member's tag segment: the head's single-request config with the other
// members' tag lists appended.
func (s *Scheduler) missionConfig(batch []*mission) (runtime.Config, []tagSegment) {
	head := batch[0]
	cfg := MissionConfig(s.cfg, head.req, head.seq)
	segs := make([]tagSegment, len(batch))
	segs[0] = tagSegment{off: 0, n: len(head.req.Tags)}
	for i, m := range batch[1:] {
		segs[i+1] = tagSegment{off: len(cfg.Tags), n: len(m.req.Tags)}
		cfg.Tags = append(cfg.Tags, m.req.Tags...)
	}
	return cfg, segs
}

// batchBound computes the sortie context's deadline: the hard
// per-mission cap, tightened to the latest member deadline when every
// member carries one (a looser member keeps the sortie alive for the
// others).
func (s *Scheduler) batchBound(batch []*mission, now time.Time) time.Time {
	bound := now.Add(maxMissionTime)
	latest := time.Time{}
	all := true
	for _, m := range batch {
		if m.req.Deadline.IsZero() {
			all = false
			break
		}
		if m.req.Deadline.After(latest) {
			latest = m.req.Deadline
		}
	}
	if all && latest.Before(bound) {
		bound = latest
	}
	return bound
}

// runBatch flies one batch on its shard and resolves every member.
// Every batch flies under its own flight recorder: a "fleet.batch" root
// span encloses per-member "fleet.admit" spans, the engine's sortie
// spans (the recorder rides the run context), and the final
// "fleet.demux" span; the snapshot is stored on every member so GET
// /v1/missions/{id}/trace can replay the sortie.
func (s *Scheduler) runBatch(shard int, batch []*mission) {
	start := time.Now()
	cfg, segs := s.missionConfig(batch)
	ctx, cancel := context.WithDeadline(s.runCtx, s.batchBound(batch, start))
	defer cancel()
	bs := &batchState{cancel: cancel, live: len(batch)}

	head := batch[0]
	rec := obs.NewRecorder(obs.DefaultCap)
	bctx, bspan := obs.StartSpan(obs.WithRecorder(ctx, rec), "fleet.batch")
	bspan.Str("region", head.req.Region).Int("shard", int64(shard)).Int("size", int64(len(batch)))

	s.mu.Lock()
	for _, m := range batch {
		m.status = StatusRunning
		m.started = start
		m.shard = shard
		m.batchSize = len(batch)
		m.batch = bs
		wait := start.Sub(m.submitted)
		s.m.wait.ObserveDuration(wait)
		_, adm := obs.StartSpan(bctx, "fleet.admit")
		adm.Str("mission", m.id).Float("wait_ms", float64(wait)/float64(time.Millisecond))
		adm.End()
	}
	s.mu.Unlock()
	s.m.batches.Add(1)
	s.m.batchSizeSum.Add(int64(len(batch)))
	if len(batch) > 1 {
		s.m.batchedRequests.Add(int64(len(batch)))
	}

	var res runtime.MissionResult
	var tagReads []uint32
	var eng *runtime.Engine
	var runErr error
	if len(head.req.Resume) > 0 {
		// Failover path: restore the engine from a checkpoint flown
		// elsewhere and fly only the remaining sorties. Resume requests
		// are exclusive, so the batch is this one mission.
		eng, runErr = runtime.Restore(cfg, head.req.Resume)
		if runErr == nil {
			s.m.resumed.Add(1)
		}
	} else {
		eng, runErr = runtime.New(cfg)
	}
	if runErr == nil {
		// The engine never leaves this goroutine; the sinks below are the
		// only way its state gets out. last is the drain checkpoint.
		var last []byte
		// Publish each committed boundary on the batch records as the
		// engine flies: the checkpoint (GET /v1/missions/{id}/checkpoint,
		// the replication source) and, for SAR missions, the capture log
		// (download, replay solves), together, so a
		// long-poll woken by the commit finds both at the same sortie.
		eng.CheckpointSink = func(done int, ckpt []byte) {
			last = ckpt
			s.publish(batch, done, ckpt, eng.CaptureLog())
		}
		// Live mid-flight estimates ride the same commit boundary. The
		// solve localizes the batch's lead tag, so the estimate belongs
		// to the head record alone (mirroring demux's Loc ownership).
		eng.EstimateSink = func(est runtime.LiveEstimate) {
			s.mu.Lock()
			head.est = &est
			s.mu.Unlock()
		}
		// pprof label propagation: CPU samples taken during the sortie
		// carry the mission/region/shard labels.
		obs.Labeled(bctx, func(rctx context.Context) {
			res, runErr = eng.Run(rctx)
		}, "rfly_mission", head.id, "rfly_region", head.req.Region, "rfly_shard", strconv.Itoa(shard))
		tagReads = eng.TagReads()
		// Run has returned, so the engine sits at a committed boundary
		// (rolled back there on error): the last published checkpoint is
		// its state. Only a batch that committed no sortie snapshots, and
		// outside the batch trace: the drain copy is not mission work.
		if last == nil {
			last = eng.SnapshotCtx(context.Background())
		}
		s.mu.Lock()
		s.drain[shard] = last
		s.mu.Unlock()
	}
	elapsed := time.Since(start)
	s.m.run.ObserveDuration(elapsed)
	s.m.shardBusyNs[shard].Add(elapsed.Nanoseconds())

	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	ms := float64(elapsed) / float64(time.Millisecond)
	if s.ewmaBatchMs == 0 {
		s.ewmaBatchMs = ms
	} else {
		s.ewmaBatchMs = 0.7*s.ewmaBatchMs + 0.3*ms
	}
	totalAttempts := 0
	for _, sr := range res.Sorties {
		totalAttempts += sr.Attempts
	}
	_, dspan := obs.StartSpan(bctx, "fleet.demux")
	dspan.Int("members", int64(len(batch)))
	for i, m := range batch {
		switch {
		case m.canceled:
			s.finishLocked(m, StatusCanceled, nil, "canceled in flight")
		case runErr != nil && errors.Is(runErr, context.DeadlineExceeded):
			s.finishLocked(m, StatusExpired, nil, "mission deadline exceeded: "+runErr.Error())
		case runErr != nil:
			s.finishLocked(m, StatusFailed, nil, runErr.Error())
		case !m.req.Deadline.IsZero() && now.After(m.req.Deadline):
			s.finishLocked(m, StatusExpired, nil, "completed after request deadline")
		default:
			s.finishLocked(m, StatusDone, demux(m, segs[i], res, tagReads, totalAttempts, len(cfg.Tags)), "")
		}
	}
	dspan.End()
	bspan.Bool("failed", runErr != nil).End()
	trace := rec.Snapshot()
	for _, m := range batch {
		m.trace = trace
	}
}

// publish stores one committed sortie boundary on every batch record —
// the checkpoint, the capture log (nil for missions without SAR) and the
// committed count — and wakes the long-polls waiting on it (Await parks
// them again at the final boundary). A mission nobody long-polls
// publishes without allocating.
func (s *Scheduler) publish(batch []*mission, done int, ckpt, log []byte) {
	s.m.checkpoints.Add(1)
	if log != nil {
		s.m.capturePubs.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range batch {
		m.ckpt, m.capture, m.committed = ckpt, log, done
		if m.wake != nil {
			close(m.wake)
			m.wake = nil
		}
	}
}

// demux slices one member's outcome out of the batch mission result.
func demux(m *mission, seg tagSegment, res runtime.MissionResult, tagReads []uint32,
	totalAttempts, totalTags int) *Outcome {
	out := &Outcome{Sorties: len(res.Sorties)}
	if seg.off+seg.n <= len(tagReads) {
		out.TagReads = append([]uint32(nil), tagReads[seg.off:seg.off+seg.n]...)
		for _, n := range out.TagReads {
			out.Reads += int(n)
		}
	}
	if totalTags > 0 {
		// Attempts are round-robin across the batch tag table; this
		// member's share is proportional to its tag count.
		out.Attempts = totalAttempts * seg.n / totalTags
	}
	// The mission localizes the lead tag; that belongs to the batch
	// head (segment offset zero).
	if res.LocOK && seg.off == 0 {
		out.LocOK = true
		out.LocX, out.LocY = res.LocX, res.LocY
	}
	return out
}
