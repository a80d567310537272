package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// The ckpt subcommand runs a shell script as a checkpointable phased
// program — one phase per line — against a content-addressed store on
// disk:
//
//	echo 'write f hello' | detshell ckpt save DIR
//	echo 'cat f'         | detshell ckpt resume DIR
//
// save runs the script and checkpoints the whole machine (process tree,
// file system, console cursors) into DIR, recording the manifest key in
// DIR/MANIFEST. resume continues that exact machine, feeds it the new
// script lines, and — when there are new lines — saves a fresh
// checkpoint chained onto the old one, so repeated resumes build an
// incremental image chain in the same store.

// manifestFile is where the current chain head's key is recorded.
const manifestFile = "MANIFEST"

func ckptMain(args []string) int {
	if len(args) != 2 || (args[0] != "save" && args[0] != "resume") {
		fmt.Fprintln(os.Stderr, "usage: detshell ckpt save DIR | detshell ckpt resume DIR")
		return 2
	}
	dir := args[1]
	store, err := repro.OpenDirStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detshell: ckpt:", err)
		return 1
	}
	switch args[0] {
	case "save":
		err = ckptSave(store, dir, os.Stdin, os.Stdout)
	case "resume":
		err = ckptResume(store, dir, os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "detshell: ckpt:", err)
		return 1
	}
	return 0
}

// ckptSave runs the script from r as phases of a fresh machine and
// checkpoints at the final barrier.
func ckptSave(store repro.BlobStore, dir string, r io.Reader, out io.Writer) error {
	lines := scriptLines(r)
	if len(lines) == 0 {
		return fmt.Errorf("empty script: nothing to checkpoint")
	}
	prog := shellProgram(0, lines)
	s, err := repro.NewSession(shellSessionOpts(out)...)
	if err != nil {
		return err
	}
	if err := s.Bind(prog); err != nil {
		return err
	}
	if _, err := s.Step(prog.Phases); err != nil {
		return err
	}
	m, err := s.Suspend(store)
	if err != nil {
		return err
	}
	if err := writeManifestKey(dir, m); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "detshell: saved checkpoint %s (%d phases, seq %d) to %s\n",
		m.Key(), prog.Phases, m.Seq(), dir)
	return nil
}

// ckptResume continues the machine recorded in dir/MANIFEST, runs any
// new script lines from r as further phases, and (when there are new
// lines) chains a fresh checkpoint onto the old one.
func ckptResume(store repro.BlobStore, dir string, r io.Reader, out io.Writer) error {
	m, err := repro.ReadManifestHead(store, filepath.Join(dir, manifestFile))
	if err != nil {
		return err
	}
	// The phase the image resumes at tells us how many script lines the
	// saved run already executed.
	img, err := repro.LoadImage(store, m)
	if err != nil {
		return err
	}
	done := img.Phase

	lines := scriptLines(r)
	prog := shellProgram(done, lines)
	s, err := repro.NewSession(shellSessionOpts(out)...)
	if err != nil {
		return err
	}
	if err := s.BindSuspended(prog, store, m); err != nil {
		return err
	}
	// One Step runs every new line; with none it just restores the
	// machine and re-derives its result.
	if _, err := s.Step(max(len(lines), 1)); err != nil {
		return err
	}
	if len(lines) == 0 {
		fmt.Fprintf(os.Stderr, "detshell: resumed checkpoint %s (no new phases)\n", m.Key())
		return nil
	}
	m2, err := s.Suspend(store)
	if err != nil {
		return err
	}
	if err := writeManifestKey(dir, m2); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "detshell: resumed %s, saved %s (%d phases, seq %d)\n",
		m.Key(), m2.Key(), prog.Phases, m2.Seq())
	return nil
}

// shellProgram builds the phased form of the shell: phases [0, done) ran
// before the checkpoint being resumed (they are never invoked again);
// each later phase executes one script line through the ordinary command
// interpreter.
func shellProgram(done int, lines []string) repro.Program {
	reg := repro.NewRegistry()
	registerCommands(reg)
	phases := make([]repro.UprocPhase, 0, done+len(lines))
	for i := 0; i < done; i++ {
		i := i
		phases = append(phases, func(p *repro.Proc) error {
			return fmt.Errorf("phase %d already ran before the checkpoint", i)
		})
	}
	for _, line := range lines {
		line := line
		phases = append(phases, func(p *repro.Proc) error {
			runCommand(p, strings.Fields(line)) // shell semantics: a failing command is not fatal
			return nil
		})
	}
	return repro.UprocProgram(reg, []string{"sh"}, phases)
}

// shellSessionOpts is the session configuration both save and resume use
// (resume must match the machine shape the image was captured under).
func shellSessionOpts(out io.Writer) []repro.SessionOption {
	return []repro.SessionOption{
		repro.WithMachine(repro.MachineConfig{CPUsPerNode: 4}),
		repro.WithConsole(nil, out),
	}
}

// scriptLines reads a shell script: blank lines and comments are
// dropped, and an exit command ends the script.
func scriptLines(r io.Reader) []string {
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Fields(line)[0] == "exit" {
			break
		}
		lines = append(lines, line)
	}
	return lines
}

// writeManifestKey records the chain head in dir/MANIFEST atomically —
// a crashed save leaves the old head intact rather than a truncated key
// that would strand the whole chain.
func writeManifestKey(dir string, m *repro.Manifest) error {
	return repro.WriteManifestHead(filepath.Join(dir, manifestFile), m)
}
