package drone

import (
	"context"
	"math"
	"testing"
	"time"
)

// degradePlan builds a multi-sortie coverage plan for the sag tests.
func degradePlan(t *testing.T) (Plan, Endurance) {
	t.Helper()
	m := Mission{
		X0: 0, Y0: 0, X1: 200, Y1: 100,
		AltitudeM: 1.5, ReadRadiusM: 8, Overlap: 0.15,
	}
	e := Bebop2Endurance()
	pl, err := m.PlanCoverage(Bebop2(), e)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Sorties < 3 {
		t.Fatalf("test mission too small: %d sorties", pl.Sorties)
	}
	return pl, e
}

func TestExecuteWithSagNoFaultIsNominal(t *testing.T) {
	pl, e := degradePlan(t)
	out, err := pl.ExecuteWithSagCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if out.AbortedSorties != 0 || out.ExtraSorties != 0 || out.LostAirtime != 0 {
		t.Fatalf("fault-free run degraded: %+v", out)
	}
	if out.Delay != 0 || out.Sorties != pl.Sorties || out.TotalTime != pl.TotalTime {
		t.Fatalf("fault-free run changed the plan: delay %v, sorties %d vs %d",
			out.Delay, out.Sorties, pl.Sorties)
	}
}

func TestExecuteWithSagMidMission(t *testing.T) {
	pl, e := degradePlan(t)
	sag := BatterySag{Sortie: 2, FlightFrac: 0.5, CapacityFrac: 0.2}
	out, err := pl.ExecuteWithSagCtx(context.Background(), e, sag)
	if err != nil {
		t.Fatal(err)
	}
	if out.AbortedSorties != 1 {
		t.Fatalf("AbortedSorties = %d", out.AbortedSorties)
	}
	if out.LostAirtime <= 0 {
		t.Fatalf("LostAirtime = %v", out.LostAirtime)
	}
	// Half the sortie flew clean; of the remaining half only 20% × 90%
	// (reserve) was delivered, so the shortfall is half × (1 − 0.18).
	wantLost := time.Duration(0.5 * (1 - 0.2*0.9) * float64(e.FlightTime))
	if diff := out.LostAirtime - wantLost; diff < -time.Second || diff > time.Second {
		t.Fatalf("LostAirtime = %v, want ≈ %v", out.LostAirtime, wantLost)
	}
	if out.Sorties < pl.Sorties || out.ExtraSorties != out.Sorties-pl.Sorties {
		t.Fatalf("sortie accounting: %d vs nominal %d, extra %d",
			out.Sorties, pl.Sorties, out.ExtraSorties)
	}
	if out.Delay <= 0 {
		t.Fatalf("Delay = %v", out.Delay)
	}
	// Coverage is never dropped: wall clock is full path airtime plus all
	// swap stops, and the delay is exactly the unscheduled swaps.
	wantTotal := pl.FlightTime + time.Duration(out.Sorties-1)*e.SwapTime
	if out.TotalTime != wantTotal {
		t.Fatalf("TotalTime = %v, want %v", out.TotalTime, wantTotal)
	}
	if out.CoverageRate >= pl.CoverageRate {
		t.Fatalf("coverage rate did not degrade: %v vs %v", out.CoverageRate, pl.CoverageRate)
	}
}

func TestExecuteWithSagHarmlessSagIsFree(t *testing.T) {
	pl, e := degradePlan(t)
	// Sag at the very end of the sortie with full remaining capacity: the
	// only loss is the 10% reserve on a zero-length remainder.
	out, err := pl.ExecuteWithSagCtx(context.Background(), e, BatterySag{Sortie: 1, FlightFrac: 1, CapacityFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.LostAirtime != 0 || out.ExtraSorties != 0 {
		t.Fatalf("end-of-sortie benign sag cost something: %+v", out)
	}
}

func TestExecuteWithSagDeadOnTheSpot(t *testing.T) {
	pl, e := degradePlan(t)
	out, err := pl.ExecuteWithSagCtx(context.Background(), e, BatterySag{Sortie: 1, FlightFrac: 0.25, CapacityFrac: 0})
	if err != nil {
		t.Fatal(err)
	}
	// The whole remaining 75% of the sortie is lost.
	wantLost := time.Duration(0.75 * float64(e.FlightTime))
	if math.Abs(float64(out.LostAirtime-wantLost)) > float64(time.Second) {
		t.Fatalf("LostAirtime = %v, want ≈ %v", out.LostAirtime, wantLost)
	}
	if out.ExtraSorties < 1 {
		t.Fatalf("losing 3/4 of a pack should cost an extra sortie, got %d", out.ExtraSorties)
	}
}

func TestExecuteWithSagWorstOfDuplicates(t *testing.T) {
	pl, e := degradePlan(t)
	mild := BatterySag{Sortie: 2, FlightFrac: 0.5, CapacityFrac: 0.8}
	severe := BatterySag{Sortie: 2, FlightFrac: 0.5, CapacityFrac: 0.1}
	both, err := pl.ExecuteWithSagCtx(context.Background(), e, mild, severe)
	if err != nil {
		t.Fatal(err)
	}
	severeOnly, err := pl.ExecuteWithSagCtx(context.Background(), e, severe)
	if err != nil {
		t.Fatal(err)
	}
	if both.LostAirtime != severeOnly.LostAirtime || both.AbortedSorties != 1 {
		t.Fatalf("duplicate sags did not collapse to the worst: %v vs %v",
			both.LostAirtime, severeOnly.LostAirtime)
	}
}

func TestExecuteWithSagValidation(t *testing.T) {
	pl, e := degradePlan(t)
	bad := []BatterySag{
		{Sortie: 0, FlightFrac: 0.5, CapacityFrac: 0.5},
		{Sortie: pl.Sorties + 1, FlightFrac: 0.5, CapacityFrac: 0.5},
		{Sortie: 1, FlightFrac: -0.1, CapacityFrac: 0.5},
		{Sortie: 1, FlightFrac: 1.1, CapacityFrac: 0.5},
		{Sortie: 1, FlightFrac: 0.5, CapacityFrac: -0.1},
		{Sortie: 1, FlightFrac: 0.5, CapacityFrac: 1.5},
	}
	for _, s := range bad {
		if _, err := pl.ExecuteWithSagCtx(context.Background(), e, s); err == nil {
			t.Fatalf("sag %+v accepted", s)
		}
	}
	if _, err := (Plan{}).ExecuteWithSagCtx(context.Background(), e); err == nil {
		t.Fatal("empty plan accepted")
	}
}
