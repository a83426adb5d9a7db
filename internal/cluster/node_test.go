package cluster

import (
	"strings"
	"testing"
	"time"

	"adaptbf/internal/policy"
	"adaptbf/internal/transport"
)

// TestNodeAcceptsEveryTablePolicy: StartNode takes every row's flag (and
// reports it back canonically through the health probe), serves a request
// under it, and rejects a name the table does not hold with the table's
// own list in the message.
func TestNodeAcceptsEveryTablePolicy(t *testing.T) {
	coord, err := StartNode(NodeConfig{Role: "coord", Period: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for _, d := range policy.All() {
		n, err := StartNode(NodeConfig{
			OSS:       OSSConfig{Device: fastDevice()},
			Policy:    strings.ToUpper(d.Flag),
			MaxRate:   2000,
			Period:    20 * time.Millisecond,
			Nodes:     map[string]int{"dd.n1": 2},
			CoordAddr: coord.Addr(),
		})
		if err != nil {
			t.Errorf("StartNode(policy %q): %v", d.Flag, err)
			continue
		}
		c, err := transport.Dial("tcp", n.Addr())
		if err != nil {
			n.Close()
			t.Fatal(err)
		}
		if _, err := c.Call(transport.Request{JobID: "dd.n1", Bytes: kib64, Stream: 1}); err != nil {
			t.Errorf("policy %q: storage RPC: %v", d.Flag, err)
		}
		rep, err := c.Call(transport.Request{Op: OpNodeHealth})
		if h, perr := ParseNodeHealth(rep.Payload); err != nil || perr != nil || h.Policy != d.Flag {
			t.Errorf("policy %q: health reports %+v (%v, %v)", d.Flag, h, err, perr)
		}
		c.Close()
		if st := n.Close(); st.ServedRPCs != 1 || st.Policy != d.Flag {
			t.Errorf("policy %q: final stats %+v", d.Flag, st)
		}
	}
	_, err = StartNode(NodeConfig{Policy: "bogus"})
	if err == nil || !strings.Contains(err.Error(), policy.Flags()) {
		t.Fatalf("StartNode(policy bogus) = %v, want an error listing %q", err, policy.Flags())
	}
	if _, err := StartNode(NodeConfig{Policy: "gift"}); err == nil {
		t.Fatal("a gift node with no coordinator address started")
	}
}
