#!/bin/sh
# The console-script smoke steps of CI: run the installed `ksig` on a few
# small problems, writing everything under the output directory given as
# the one argument.  Stops at the first step that exits non-zero.
#
#   sh .github/smoke.sh OUTDIR
set -eu
[ $# -eq 1 ] || { echo "usage: $0 OUTDIR" >&2; exit 2; }
out=$1
mkdir -p "$out"

ksig --version
ksig verify --n 3 --k 3 --samples 200 --out "$out/v33"
# k = 5: the sigma recursion's T stack is four planes deep
ksig verify --n 5 --k 5 --samples 200 --out "$out/v55"

# a solve on a constant background, stored as one n x n matrix, then charts of its output
printf '[problem]\nn = 3\nk = 3\nresolution = 8\nbackground = spaceform:-1\nalpha = 0.2*sin(x1)\n\n[output]\ndirectory = %s\n' \
  "$out/s" > "$out/spaceform.ini"
ksig solve "$out/spaceform.ini"
ksig report "$out/s"

# a hard panel row, n = k = 4: several accepted steps and one rejected one, on
# non-constant G^{ij}, whose min_eig_Gij comes from the nodes Gershgorin keeps
printf '[problem]\nn = 4\nk = 4\nresolution = 8\nalpha = 10*sin(x1)*cos(x2)\n\n[output]\ndirectory = %s\n' \
  "$out/h" > "$out/hard.ini"
ksig solve "$out/hard.ini"
ksig report "$out/h"

# a manufactured package from an expression u_star, with one constant and one expression
# alpha_l, held at their own rank; then a solve of the package and charts of its output
printf '[problem]\nn = 3\nk = 3\nresolution = 8\nalpha_l = 1, 0.5 + 0.1*sin(x3)\nu_star = 0.1*sin(x1)*cos(x2) + 0.05*cos(x3)\n\n[output]\ndirectory = %s\n' \
  "$out/m" > "$out/manufacture.ini"
ksig manufacture "$out/manufacture.ini"
cd "$out/m"
ksig solve manufactured.ini
ksig report manufactured-run

# the stencil-jet branch: a package from the file: u_star and alpha_l fields of the one
# above, whose alpha makes u_star an exact discrete root; then a solve of it and charts
printf '[problem]\nn = 3\nk = 3\nresolution = 8\nalpha_l = file:alpha_l_0.ksig, file:alpha_l_1.ksig\nu_star = file:u_star.ksig\n\n[output]\ndirectory = stencil\n' \
  > stencil.ini
ksig manufacture stencil.ini
cd stencil
ksig solve manufactured.ini
ksig report manufactured-run
