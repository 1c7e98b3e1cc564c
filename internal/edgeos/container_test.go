package edgeos

import "testing"

func TestLaunchValidation(t *testing.T) {
	r := NewContainerRuntime()
	if _, err := r.Launch("", ContainerIsolation, 100, 256, "m"); err == nil {
		t.Fatal("empty service accepted")
	}
	if _, err := r.Launch("x", ContainerIsolation, 0, 256, "m"); err == nil {
		t.Fatal("zero shares accepted")
	}
	if _, err := r.Launch("x", ContainerIsolation, 100, 0, "m"); err == nil {
		t.Fatal("zero memory accepted")
	}
	if _, err := r.Launch("x", ContainerIsolation, 100, 256, "m"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Launch("x", ContainerIsolation, 100, 256, "m"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := r.Remove("x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("x"); err == nil {
		t.Fatal("removing an absent container succeeded")
	}
	if _, err := r.Launch("x", ContainerIsolation, 100, 256, "m"); err != nil {
		t.Fatalf("relaunch after remove: %v", err)
	}
}

func TestIsolationKindString(t *testing.T) {
	if ContainerIsolation.String() != "container" || TEEIsolation.String() != "tee" {
		t.Fatal("isolation names wrong")
	}
	if IsolationKind(9).String() != "isolation(9)" {
		t.Fatal("unknown isolation name wrong")
	}
}
