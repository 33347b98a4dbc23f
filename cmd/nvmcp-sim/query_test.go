package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestLineageQueriesOutput pins the lineage query output of a fault cascade
// run: the -chunk history, the -violations verdict and the -why causal
// chain are printed after the run summary, in that order.
func TestLineageQueriesOutput(t *testing.T) {
	out, err := exec.Command(simBinary(t), "-preset", "faults", "-scale", "tiny",
		"-why", "rank2/scalar-5@1", "-chunk", "rank0/field3d-0", "-violations").Output()
	if err != nil {
		t.Fatalf("nvmcp-sim: %v", err)
	}
	got := string(out)
	if !strings.HasSuffix(got, wantFaultsQueries) {
		i := strings.Index(got, "rank0/field3d-0 (")
		if i < 0 {
			i = 0
		}
		t.Fatalf("query output differs:\n%s\nwant:\n%s", got[i:], wantFaultsQueries)
	}
}

const wantFaultsQueries = `rank0/field3d-0 (34 records)
  t=3004947us epoch=0 [local] stage node0 seq=2 1390966B
  t=3063862us epoch=0 [local] commit node0 seq=2 1390966B
  t=3316352us epoch=0 [remote] ship node0 seq=2 1390966B (buddy 1)
  t=4113920us epoch=0 [dram] dirty node0 seq=3 1390966B
  t=6005888us epoch=0 [local] stage node0 seq=3 1390966B
  t=6005888us epoch=0 [local] precopy node0 seq=3 1390966B
  t=6064803us epoch=0 [local] commit node0 seq=3 1390966B
  t=6413598us epoch=0 [remote] ship node0 seq=3 1390966B (buddy 1)
  t=7114861us epoch=0 [dram] dirty node0 seq=4 1390966B
  t=9007468us epoch=0 [local] stage node0 seq=4 1390966B
  t=9007468us epoch=0 [local] precopy node0 seq=4 1390966B
  t=9067589us epoch=0 [local] commit node0 seq=4 1390966B
  t=9488548us epoch=0 [remote] remote_commit node0 seq=3 1390966B
  t=9491504us epoch=0 [bottom] drain node0 seq=3 1390966B
  t=9804862us epoch=0 [remote] ship node0 seq=4 1390966B (buddy 1)
  t=10117647us epoch=0 [dram] dirty node0 seq=5 1390966B
  t=12819303us epoch=1 [remote] restore node0 1390966B (remote)
  t=12819303us epoch=1 [remote] recovered node0 seq=3 1390966B (tier remote)
  t=16072281us epoch=1 [local] stage node0 seq=3 1390966B
  t=16131363us epoch=1 [local] commit node0 seq=3 1390966B
  t=16247684us epoch=1 [remote] ship node0 seq=3 1390966B (buddy 1)
  t=17181420us epoch=1 [dram] dirty node0 seq=4 1390966B
  t=19073389us epoch=1 [local] stage node0 seq=4 1390966B
  t=19073389us epoch=1 [local] precopy node0 seq=4 1390966B
  t=19132303us epoch=1 [local] commit node0 seq=4 1390966B
  t=19320224us epoch=1 [remote] remote_commit node0 seq=3 1390966B
  t=19636538us epoch=1 [remote] ship node0 seq=4 1390966B (buddy 1)
  t=20245914us epoch=1 [dram] dirty node0 seq=5 1390966B
  t=22138521us epoch=1 [local] stage node0 seq=5 1390966B
  t=22138521us epoch=1 [local] precopy node0 seq=5 1390966B
  t=22199230us epoch=1 [local] commit node0 seq=5 1390966B
  t=22316671us epoch=1 [remote] ship node0 seq=5 1390966B (buddy 1)
  t=25389211us epoch=1 [remote] remote_commit node0 seq=5 1390966B
  t=25392167us epoch=1 [bottom] drain node0 seq=5 1390966B
no lineage invariant violations
why rank2/scalar-5 entered epoch 1:
  t=3000982us epoch=0 [local] stage node1 seq=2 44455B
  t=3063859us epoch=0 [local] commit node1 seq=2 44455B
  t=3216951us epoch=0 [remote] ship node1 seq=2 44455B (buddy 0)
  t=3963890us epoch=0 [dram] dirty node1 seq=3 44455B
  t=4500000us epoch=0 fault node0 (link-flap factor=0 secs=1.5)
  t=6000000us epoch=0 fault node0 (link-restore)
  t=6001923us epoch=0 [local] stage node1 seq=3 44455B
  t=6001923us epoch=0 [local] precopy node1 seq=3 44455B
  t=6064800us epoch=0 [local] commit node1 seq=3 44455B
  t=6314196us epoch=0 [remote] ship node1 seq=3 44455B (buddy 0)
  t=6964831us epoch=0 [dram] dirty node1 seq=4 44455B
  t=9003503us epoch=0 [local] stage node1 seq=4 44455B
  t=9003503us epoch=0 [local] precopy node1 seq=4 44455B
  t=9067586us epoch=0 [local] commit node1 seq=4 44455B
  t=9488548us epoch=0 [remote] remote_commit node1 seq=3 44455B
  t=9541648us epoch=0 [bottom] drain node0 seq=3 44455B
  t=9705461us epoch=0 [remote] ship node1 seq=4 44455B (buddy 0)
  t=9967617us epoch=0 [dram] dirty node1 seq=5 44455B
  t=10500000us epoch=0 [local] corrupt node1 seq=4 44455B (nvm-corrupt@10.5s/node1)
  t=10500000us epoch=0 fault node1 (nvm_corrupt)
  t=10800000us epoch=0 fault node0 (failure buddy-loss)
  t=12800000us epoch=1 fault node0 (recovery kind=buddy-loss resume_iter=3)
  t=12800050us epoch=1 [local] salvage node1 seq=4 44455B (salvage)
  t=12803852us epoch=1 [bottom] restore node1 44455B (bottom)
  t=12803852us epoch=1 [bottom] recovered node1 seq=3 44455B (tier bottom)
  t=16068316us epoch=1 [local] stage node1 seq=3 44455B
  t=16131193us epoch=1 [local] commit node1 seq=3 44455B
  t=17031390us epoch=1 [dram] dirty node1 seq=4 44455B
  t=17733328us epoch=1 [remote] ship node1 seq=3 44455B (buddy 0)
  t=19132977us epoch=1 [local] stage node1 seq=4 44455B
  t=19195853us epoch=1 [local] commit node1 seq=4 44455B
  t=19310843us epoch=1 [remote] remote_commit node1 seq=3 44455B
  t=20095884us epoch=1 [dram] dirty node1 seq=5 44455B
  t=21122182us epoch=1 [remote] ship node1 seq=4 44455B (buddy 0)
  t=22134556us epoch=1 [local] stage node1 seq=5 44455B
  t=22134556us epoch=1 [local] precopy node1 seq=5 44455B
  t=22199227us epoch=1 [local] commit node1 seq=5 44455B
  t=23805903us epoch=1 [remote] ship node1 seq=5 44455B (buddy 0)
  t=25383418us epoch=1 [remote] remote_commit node1 seq=5 44455B
  t=25436517us epoch=1 [bottom] drain node0 seq=5 44455B
verdict: served by the bottom tier (seq 3)
  local miss: committed payload damaged by nvm-corrupt@10.5s/node1
  local miss: checksum mismatch at restore — damaged version salvaged (salvage)
  remote miss: buddy copy held on node0, lost to failure buddy-loss
`
