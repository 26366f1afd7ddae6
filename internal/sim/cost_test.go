package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParagonValid(t *testing.T) {
	if err := Paragon().Validate(); err != nil {
		t.Fatalf("Paragon preset invalid: %v", err)
	}
	if err := Workstation().Validate(); err != nil {
		t.Fatalf("Workstation preset invalid: %v", err)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	c := Paragon()
	c.FlopRate = 0
	if err := c.Validate(); err == nil {
		t.Error("zero FlopRate accepted")
	}
	c = Paragon()
	c.Alpha = -1
	if err := c.Validate(); err == nil {
		t.Error("negative Alpha accepted")
	}
	c = Paragon()
	c.Beta = -1e-9
	if err := c.Validate(); err == nil {
		t.Error("negative Beta accepted")
	}
}

func TestFlopTime(t *testing.T) {
	c := CostModel{FlopRate: 1e6}
	if got := c.FlopTime(1e6); got != 1.0 {
		t.Errorf("FlopTime(1e6) = %g, want 1", got)
	}
	if got := c.FlopTime(0); got != 0 {
		t.Errorf("FlopTime(0) = %g, want 0", got)
	}
	if got := c.FlopTime(-5); got != 0 {
		t.Errorf("FlopTime(-5) = %g, want 0", got)
	}
}

func TestWireTimeComponents(t *testing.T) {
	c := CostModel{Alpha: 1e-4, Beta: 1e-8}
	if got := c.WireTime(0); got != 1e-4 {
		t.Errorf("WireTime(0) = %g, want alpha", got)
	}
	want := 1e-4 + 1000*1e-8
	if got := c.WireTime(1000); math.Abs(got-want) > 1e-15 {
		t.Errorf("WireTime(1000) = %g, want %g", got, want)
	}
}

func TestWireTimeMonotonic(t *testing.T) {
	c := Paragon()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return c.WireTime(x) <= c.WireTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIOTime(t *testing.T) {
	c := CostModel{IORate: 1e6}
	if got := c.IOTime(2e6); got != 2.0 {
		t.Errorf("IOTime = %g, want 2", got)
	}
	c.IORate = 0
	if got := c.IOTime(100); got != 0 {
		t.Errorf("IOTime with zero rate = %g, want 0", got)
	}
}
