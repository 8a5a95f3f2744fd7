package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestAssignmentAccounting(t *testing.T) {
	a := NewAssignment(2, 3)
	a.X[0][0] = 2
	a.X[0][2] = 1
	a.X[1][0] = 1
	a.X[1][1] = 4
	if a.Load(0) != 3 || a.Load(1) != 5 {
		t.Fatalf("loads %d %d", a.Load(0), a.Load(1))
	}
	if a.MaxLoad() != 5 {
		t.Fatalf("maxload %d", a.MaxLoad())
	}
	if a.JobLength(0) != 2 || a.JobLength(1) != 4 || a.JobLength(2) != 1 {
		t.Fatal("job lengths wrong")
	}
	ell := [][]float64{{1, 2, 3}, {0.5, 1, 2}}
	// Mass(0) = 1*2 + 0.5*1 = 2.5
	if m := a.Mass(0, ell); math.Abs(m-2.5) > 1e-12 {
		t.Fatalf("mass %g", m)
	}
}

func TestAssignmentValidate(t *testing.T) {
	ins, err := model.New(2, 2, [][]float64{{0.5, 0.5}, {0.5, 0.5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAssignment(2, 2)
	if err := a.Validate(ins); err != nil {
		t.Fatal(err)
	}
	a.X[0][0] = -1
	if err := a.Validate(ins); err == nil {
		t.Fatal("negative entry must fail validation")
	}
	b := NewAssignment(1, 2)
	if err := b.Validate(ins); err == nil {
		t.Fatal("dimension mismatch must fail validation")
	}
}

func TestSerializeStructure(t *testing.T) {
	a := NewAssignment(2, 3)
	a.X[0][1] = 2
	a.X[0][0] = 1
	a.X[1][2] = 5
	o := a.Serialize()
	if o.Length != 5 {
		t.Fatalf("length %d, want 5", o.Length)
	}
	if err := o.Validate(3); err != nil {
		t.Fatal(err)
	}
	// Machine 0 runs job 0 then job 1 (ascending job order).
	if len(o.Runs[0]) != 2 || o.Runs[0][0].Job != 0 || o.Runs[0][1].Job != 1 {
		t.Fatalf("machine 0 runs: %+v", o.Runs[0])
	}
	jobs := o.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("jobs %v", jobs)
	}
}

func TestMassPerPass(t *testing.T) {
	a := NewAssignment(1, 2)
	a.X[0][0] = 3
	ell := [][]float64{{2, 1}}
	mass := a.Serialize().MassPerPass(ell)
	if math.Abs(mass[0]-6) > 1e-12 || mass[1] != 0 {
		t.Fatalf("mass %v", mass)
	}
}

// TestSerializeJobsMatchesSerialize: restricting serialization to a
// column list that covers every nonzero column must not change the
// schedule — runs, length, and first-appearance job order — and an
// unsorted list must fall back to the full serialization.
func TestSerializeJobsMatchesSerialize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		m, n := 1+rng.Intn(6), 1+rng.Intn(90)
		a := NewAssignment(m, n)
		var cols []int
		for j := 0; j < n; j++ {
			if rng.Intn(3) != 0 {
				continue
			}
			cols = append(cols, j)
			for i := 0; i < m; i++ {
				if rng.Intn(2) == 0 {
					a.X[i][j] = int64(1 + rng.Intn(5))
				}
			}
		}
		want := a.Serialize()
		if got := a.SerializeJobs(cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SerializeJobs(%v) = %+v, Serialize = %+v", trial, cols, got, want)
		}
		if len(cols) > 1 {
			cols[0], cols[1] = cols[1], cols[0]
			if got := a.SerializeJobs(cols); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: unsorted columns changed the schedule", trial)
			}
		}
	}
}

func TestObliviousValidateErrors(t *testing.T) {
	o := &Oblivious{M: 1, Runs: [][]Run{{{Job: 5, Steps: 1}}}, Length: 1}
	if err := o.Validate(3); err == nil {
		t.Fatal("job out of range must fail")
	}
	o = &Oblivious{M: 1, Runs: [][]Run{{{Job: 0, Steps: 0}}}, Length: 1}
	if err := o.Validate(3); err == nil {
		t.Fatal("zero-step run must fail")
	}
	o = &Oblivious{M: 1, Runs: [][]Run{{{Job: 0, Steps: 5}}}, Length: 1}
	if err := o.Validate(3); err == nil {
		t.Fatal("timeline exceeding length must fail")
	}
}

// TestStepAssignmentsRoundTrip: expanding a serialized assignment into steps
// must recover exactly x_ij machine-steps per pair.
func TestStepAssignmentsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(4), 1+rng.Intn(5)
		a := NewAssignment(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.X[i][j] = int64(rng.Intn(4))
			}
		}
		o := a.Serialize()
		if int64(len(o.StepAssignments())) != o.Length {
			return false
		}
		count := NewAssignment(m, n)
		for _, assign := range o.StepAssignments() {
			for i, j := range assign {
				if j >= 0 {
					count.X[i][j]++
				}
			}
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if count.X[i][j] != a.X[i][j] {
					t.Logf("seed %d: x[%d][%d] %d != %d", seed, i, j, count.X[i][j], a.X[i][j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
