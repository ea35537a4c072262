package raceguard_test

import (
	"testing"

	"github.com/rolo-storage/rolo/internal/analysis/analysistest"
	"github.com/rolo-storage/rolo/internal/analysis/raceguard"
)

func TestGuardedBy(t *testing.T) {
	analysistest.Run(t, "testdata", raceguard.GuardedBy, "fix/guarded")
}

func TestLockContract(t *testing.T) {
	analysistest.Run(t, "testdata", raceguard.LockContract, "fix/lockcontract")
}
