# The benchmark's build file. run.py configures the repository with
#
#   cmake -S . -B .bench_build/tako -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=<checkout>/simbench/simbench.cmake
#
# CMake includes this file at the end of the top-level project() call,
# before any tako_* target exists, so the probe target is added by a
# deferred call that runs once the top-level CMakeLists.txt is done. The
# probe then links the same targets, with the same flags, as the takosim
# binary it measures, and the repository's own build files stay as they
# are.

set(SIMBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(simbench_add_probe)
    add_executable(simbench_probe "${SIMBENCH_DIR}/probe.cc")
    target_include_directories(simbench_probe PRIVATE
        "${CMAKE_SOURCE_DIR}/src")
    target_link_libraries(simbench_probe PRIVATE tako_workloads
        tako_trace tako_system tako_noc tako_mem tako_sim)
endfunction()

cmake_language(DEFER CALL simbench_add_probe)
