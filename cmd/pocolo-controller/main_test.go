package main

import (
	"strings"
	"testing"
	"time"

	"pocolo/internal/controlplane"
)

// TestRunErrors checks that run refuses a bad command line before it
// serves or polls anything. Where a listen address is given its port is
// invalid, so a run that wrongly accepted its flags fails at once
// instead of serving.
func TestRunErrors(t *testing.T) {
	const agents, badListen = "http://127.0.0.1:7201,http://127.0.0.1:7202", "127.0.0.1:-1"
	cases := []struct {
		name, agents, be, listen string
		cfg                      controlplane.ControllerConfig
		want                     string
	}{
		{"no agents", "", "graph,lstm", badListen, controlplane.ControllerConfig{}, "-agents is required"},
		{"stream without listen", agents, "graph,lstm", "", controlplane.ControllerConfig{Transport: controlplane.TransportStream}, "-transport stream needs -listen"},
		{"empty best-effort app", agents, "graph,,lstm", badListen, controlplane.ControllerConfig{}, "empty best-effort app"},
		{"negative timeout", agents, "graph,lstm", badListen, controlplane.ControllerConfig{Timeout: -time.Second}, "negative duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(tc.agents, tc.be, tc.listen, "", tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run: %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
