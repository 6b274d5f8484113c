package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestGetUnknownIsErrorsIsable: lookups of unknown names must wrap
// ErrUnknownWorkload (so callers can errors.Is) and the message must
// list every available benchmark (so a typo is diagnosable from the
// error alone).
func TestGetUnknownIsErrorsIsable(t *testing.T) {
	_, err := Get("no-such-bench")
	if !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("Get error %v does not wrap ErrUnknownWorkload", err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list workload %q", err, name)
		}
	}
	if _, err := GetCompiled("no-such-bench"); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("GetCompiled error does not wrap ErrUnknownWorkload")
	}
}

// TestMustGetPanicListsNames: the MustGet panic message must carry the
// available names.
func TestMustGetPanicListsNames(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustGet(unknown) did not panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "gzip") || !strings.Contains(msg, "vortex") {
			t.Fatalf("panic message %q does not list available names", r)
		}
	}()
	MustGet("no-such-bench")
}
