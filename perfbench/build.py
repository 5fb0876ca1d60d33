"""Builds the benchmark: the program's sources under src/main/scala plus
perfbench/src, compiled with the Scala compiler that ships in the Spark
distribution ($SPARK_HOME/jars), into <build dir>/classes.

A stamp holding a digest of every source file skips the compile when
nothing changed, so only the first run in a checkout pays for it.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("need a Spark distribution with its Scala compiler: set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found: set JAVA_HOME or put java on PATH")
    return exe


def sources(root):
    program = sorted(glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"),
                               recursive=True))
    if not program:
        raise BuildError("no program sources under src/main/scala: run from a checkout root")
    own = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    return program + own


def ensure_built(root, build_dir, timeout):
    """Compile if the sources changed; returns the runtime classpath."""
    srcs = sources(root)
    jars = spark_jars()
    digest = hashlib.sha256()
    for path in srcs + [os.path.abspath(__file__)]:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    digest = digest.hexdigest()

    classes = os.path.join(build_dir, "classes")
    stamp = os.path.join(build_dir, "stamp")
    classpath = classes + os.pathsep + os.path.join(jars, "*")
    if os.path.isdir(classes) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return classpath

    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + srcs
    print("perfbench: compiling %d sources" % len(srcs), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        raise BuildError("scalac failed with exit code %d" % proc.returncode)
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(tmp, classes)
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return classpath
