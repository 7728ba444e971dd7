# Build/verify entry points. `make ci` is the tier-1 gate scripts/ci.sh
# runs; the finer-grained targets exist for quick local iteration.

.PHONY: ci build vet test race kcvet

ci:
	./scripts/ci.sh

build:
	go build ./...

vet:
	go vet ./...
	go run ./cmd/kcvet ./...

test:
	go test ./...

race:
	go test -race ./...

kcvet:
	go run ./cmd/kcvet ./...
