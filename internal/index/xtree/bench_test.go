package xtree_test

import (
	"testing"

	"lof/internal/index/indextest"
)

func BenchmarkKNNCursor(b *testing.B) { indextest.BenchKNNCursor(b, build) }
func BenchmarkBuild(b *testing.B)     { indextest.BenchBuild(b, build) }
