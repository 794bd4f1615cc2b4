//go:build unlinked

// The unlinked-functions report, informational and not a gate:
//
//	go test -tags unlinked -run '^TestUnlinkedFunctions$' -count=1 -v .
//
// builds the two commands and the four examples with inlining off, so
// each function a binary calls keeps its symbol, and logs with its line
// count every function of a non-main package of this module (bench/ is
// another module) whose symbol `go tool nm` finds in none of them.
package powerfits

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestUnlinkedFunctions(t *testing.T) {
	bins := []string{"./cmd/powerfits", "./cmd/fitsbench", "./examples/codesize",
		"./examples/designflow", "./examples/powersweep", "./examples/quickstart"}
	dir := t.TempDir()
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, bins...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, filepath.Base(bin))).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "addr type name"; a generic instantiation's name carries
			// its type arguments in brackets, dropped to match the
			// declared name.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := f[2]
			if i, j := strings.IndexByte(sym, '['), strings.LastIndexByte(sym, ']'); 0 <= i && i < j {
				sym = sym[:i] + sym[j+1:]
			}
			linked[sym] = true
		}
	}

	list, err := exec.Command("go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var unlinked []string
	total, lines := 0, 0
	for _, row := range strings.Split(strings.TrimSpace(string(list)), "\n") {
		pkg := strings.Split(row, "\t")
		if len(pkg) != 4 || pkg[1] == "main" {
			continue
		}
		fset := token.NewFileSet()
		for _, src := range strings.Fields(pkg[3]) {
			file, err := parser.ParseFile(fset, filepath.Join(pkg[2], src), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				total++
				name := fd.Name.Name
				if fd.Recv != nil {
					// A method links as pkg.T.M or pkg.(*T).M; a value
					// method reached only through a pointer links as
					// the latter.
					recv := strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*")
					recv, _, _ = strings.Cut(recv, "[")
					if linked[pkg[0]+".(*"+recv+")."+name] {
						continue
					}
					name = recv + "." + name
				}
				if sym := pkg[0] + "." + name; !linked[sym] {
					n := fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
					unlinked = append(unlinked, fmt.Sprintf("%4d  %s", n, strings.TrimPrefix(sym, "powerfits/")))
					lines += n
				}
			}
		}
	}
	sort.Slice(unlinked, func(i, j int) bool { return unlinked[i][6:] < unlinked[j][6:] })
	for _, u := range unlinked {
		t.Log(u)
	}
	t.Logf("shipping functions no binary links: %d of %d (%d lines)", len(unlinked), total, lines)
}
